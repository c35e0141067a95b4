"""Sparse multivariable Laurent polynomials over complex coefficients.

Polynomials are stored as mappings from exponent tuples (one signed integer
per variable) to complex coefficients.  This is the form of the public API,
the JSON documents and the test oracles.  Sequence evaluation and the
decision's peel do not use these products: they step a pair with the step
algebra of ``su2``, on the dense half box ``box.PairBox`` or, for a pair
whose box would be mostly empty or that lacks the inversion symmetries the
half box relies on, on its terms.  All values are immutable after
construction and every operation returns a new polynomial, so instances
can be shared freely between threads.

Coefficients live in double precision.  Equality and zero tests are
tolerance-mediated: comparisons are relative to the maximum coefficient
modulus of the operands, floored at 1 so that unit-scale coefficient sets
(the typical case for entries of unitary products) get an absolute cutoff.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterator, Mapping
from operator import add, sub

#: Default relative tolerance for zero tests and coefficient comparisons.
EPS = 1e-9

#: Relative cutoff below which stored coefficients are dropped at
#: construction.  Deliberately at the rounding floor, far below EPS: the
#: cutoff only exists to keep exact cancellations from leaving machine junk
#: in the sparse form.  The public operators cut after every operation;
#: sequence evaluation multiplies a step without cuts and cuts once after
#: it; the decision's peel does not cut, and truncates the rows its
#: cancellation leaves instead.  Every dropped coefficient injects its
#: magnitude as noise, and downstream phase extraction divides that noise
#: by the top coefficient-slice magnitude, so dropping anywhere near EPS
#: would compound past the comparison tolerance over a chain of reductions.
DROP_EPS = 1e-15

Exponents = tuple[int, ...]


class LaurentPoly:
    """A Laurent polynomial in a fixed number of variables.

    The variable count passes ``_variables``, the check that ``MqspSequence``
    and ``OracleConfig`` share: an integer from 1 to ``MAX_VARIABLES``.
    Each exponent of a key goes through ``operator.index``, the one integer
    rule, so an exponent of 0.5, 1.0 or "a" raises TypeError here rather
    than in a later operation.  The zero polynomial is the empty mapping.
    Construction normalizes the term mapping: coefficients whose modulus is
    at most ``DROP_EPS`` times the input's own maximum modulus (floored at
    1) are dropped.  Operations cut at the scale of their operands instead,
    which keeps dropping behaviour stable under unimodular rescaling.  The
    maximum modulus of the kept terms is recorded at construction, since
    every operation reads it for its drop scale.
    """

    __slots__ = ("variables", "terms", "_max_modulus")

    def __init__(self, variables: int, terms: Mapping[Exponents, complex] | None = None):
        variables = _variables(variables)
        validated: dict[Exponents, complex] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(map(operator.index, exps))
            if len(key) != variables:
                raise ValueError(
                    f"exponent vector {key} has length {len(key)}, expected {variables}"
                )
            validated[key] = complex(coeff)
        self.variables = variables
        self.terms, self._max_modulus = _cut(validated)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, variables: int) -> LaurentPoly:
        return cls(variables)

    @classmethod
    def constant(cls, variables: int, value: complex) -> LaurentPoly:
        return cls(variables, {(0,) * variables: value})

    @classmethod
    def monomial(cls, variables: int, exponents: Exponents, coeff: complex = 1.0) -> LaurentPoly:
        return cls(variables, {tuple(exponents): coeff})

    @classmethod
    def _from_arithmetic(
        cls, variables: int, terms: dict[Exponents, complex], drop_scale: float | None
    ) -> LaurentPoly:
        """Wrap the result of internal arithmetic on valid polynomials, or
        terms a caller has checked as ``__init__`` would.

        Keys are already exponent tuples of the right length and values are
        complex, so only the ``DROP_EPS`` cut at ``drop_scale`` (None: the
        construction's, at the terms' own scale) and the finiteness check
        are applied.  Takes ownership of ``terms``.
        """
        out = cls.__new__(cls)
        out.variables = variables
        out.terms, out._max_modulus = _cut(terms, drop_scale)
        return out

    # -- queries ----------------------------------------------------------

    def max_modulus(self) -> float:
        """Largest coefficient modulus; 0 for the zero polynomial."""
        return self._max_modulus

    def is_zero(self, tol: float = EPS) -> bool:
        """All coefficients within ``tol`` of zero relative to the scale,
        floored at 1; ``tol`` as for ``approx_eq``."""
        mod = self.max_modulus()
        return mod <= _tolerance(tol) * max(1.0, mod)

    def constant_coeff(self) -> complex:
        return self.terms.get((0,) * self.variables, 0j)

    def degree(self, j: int) -> int:
        """Largest |exponent| of variable ``j`` (1-based); 0 for the zero polynomial."""
        i = _axis(j, self.variables)
        return max((abs(k[i]) for k in self.terms), default=0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(j) for j in range(1, self.variables + 1))

    def coeff_slice(self, j: int, exponent: int) -> LaurentPoly:
        """Sub-polynomial of the terms whose exponent of variable ``j`` equals ``exponent``.

        The result keeps the ambient arity with the j-th exponent zeroed, so
        every polynomial in one computation shares the same variable count.
        ``j`` passes ``_axis`` and ``exponent`` goes through
        ``operator.index``: a float such as 1.0 raises TypeError.
        """
        i = _axis(j, self.variables)
        exponent = operator.index(exponent)
        picked = {
            k[:i] + (0,) + k[i + 1 :]: c for k, c in self.terms.items() if k[i] == exponent
        }
        return LaurentPoly._from_arithmetic(self.variables, picked, max(1.0, self.max_modulus()))

    # -- involutions and substitutions --------------------------------------

    def star(self) -> LaurentPoly:
        """Conjugate every coefficient; the support is unchanged."""
        return self._same_support(lambda k, c: c.conjugate())

    def invert_vars(self) -> LaurentPoly:
        """Substitute a_j -> a_j^{-1} for every variable (negate all exponents)."""
        flipped = {tuple(-e for e in k): c for k, c in self.terms.items()}
        return LaurentPoly._from_arithmetic(self.variables, flipped, max(1.0, self.max_modulus()))

    def negate_var(self, j: int) -> LaurentPoly:
        """Substitute a_j -> -a_j: flip the sign of terms with odd j-exponent."""
        i = _axis(j, self.variables)
        return self._same_support(lambda k, c: -c if k[i] % 2 else c)

    def torus_conjugate(self) -> LaurentPoly:
        """star(invert_vars(self)): equals pointwise complex conjugation of the
        polynomial's values whenever every variable lies on the unit circle."""
        return self.invert_vars().star()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        return self._merged(other, add)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self._merged(other, sub)

    def __neg__(self) -> LaurentPoly:
        return self._same_support(lambda k, c: -c)

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, LaurentPoly):
            self._require_same_shape(other)
            out: dict[Exponents, complex] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = tuple(map(add, k1, k2))
                    out[k] = out.get(k, 0j) + c1 * c2
            return LaurentPoly._from_arithmetic(self.variables, out, self._pair_scale(other))
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            scaled = {k: v * c for k, v in self.terms.items()}
            drop_scale = max(1.0, self.max_modulus() * abs(c))
            return LaurentPoly._from_arithmetic(self.variables, scaled, drop_scale)
        return NotImplemented

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------------

    def max_deviation(self, other: LaurentPoly) -> float:
        """Largest coefficient-wise |difference| against ``other``."""
        self._require_same_shape(other)
        keys = self.terms.keys() | other.terms.keys()
        return max(
            (abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys), default=0.0
        )

    def approx_eq(self, other: LaurentPoly, tol: float = EPS) -> bool:
        """Coefficient-wise equality within ``tol`` relative to the operand
        scale.  ``tol`` must be a finite number >= 0, or ValueError is raised."""
        return self.max_deviation(other) <= _tolerance(tol) * self._pair_scale(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __iter__(self) -> Iterator[tuple[Exponents, complex]]:
        return iter(sorted(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {c}" for k, c in self)
        return f"LaurentPoly({self.variables}, {{{body}}})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self:
            mono = "*".join(f"a{i + 1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)

    # -- internals -------------------------------------------------------------

    def _require_same_shape(self, other: LaurentPoly) -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable-count mismatch: {self.variables} != {other.variables}"
            )

    def _pair_scale(self, other: LaurentPoly) -> float:
        return max(1.0, self.max_modulus(), other.max_modulus())

    def _merged(self, other: LaurentPoly, op) -> LaurentPoly:
        """``self`` op ``other`` term by term, an absent term being 0j."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_shape(other)
        merged = dict(self.terms)
        for k, c in other.terms.items():
            merged[k] = op(merged.get(k, 0j), c)
        return LaurentPoly._from_arithmetic(self.variables, merged, self._pair_scale(other))

    def _same_support(self, fn) -> LaurentPoly:
        """Apply a modulus-preserving map (conjugation, sign flips) to every term."""
        out = LaurentPoly(self.variables)
        out.terms = {k: fn(k, c) for k, c in self.terms.items()}
        out._max_modulus = self._max_modulus
        return out


def _cut(terms: dict[Exponents, complex], drop_scale: float | None = None) -> tuple[dict, float]:
    """Drop the terms of modulus at most ``DROP_EPS * drop_scale``, by
    default at max(1, the terms' own largest modulus).

    Returns the kept terms (``terms`` itself when nothing is dropped) and
    their maximum modulus.  Raises ValueError on a non-finite coefficient,
    or one whose modulus passes the largest double.
    """
    values = list(terms.values())
    sizes = _moduli(values, terms)
    _require_finite(values, sizes, terms)
    top = max(sizes, default=0.0)
    cutoff = DROP_EPS * (max(1.0, top) if drop_scale is None else drop_scale)
    if top <= cutoff:
        return {}, 0.0
    if min(sizes) > cutoff:
        return terms, top
    return {key: value for key, value, size in zip(terms, values, sizes) if size > cutoff}, top


def _moduli(values, keys) -> list[float]:
    """The moduli of ``values``.  A value whose modulus passes the largest
    double, though both its parts are finite, raises ValueError naming its
    key from ``keys``, as a non-finite value does."""
    try:
        return list(map(abs, values))
    except OverflowError:
        for key, value in zip(keys, values):
            if math.hypot(value.real, value.imag) == math.inf:
                raise ValueError(
                    f"coefficient {value!r} at {key} has a modulus too large for a double"
                ) from None
        raise


def _require_finite(values: list, sizes: list, keys=None) -> None:
    """Raise ValueError on a non-finite value of ``values``, naming its key
    from ``keys`` (its position by default); ``sizes`` are their moduli."""
    if not sum(sizes) < math.inf:  # a non-finite coefficient, or a huge sum
        for key, value in zip(range(len(values)) if keys is None else keys, values):
            if not cmath.isfinite(value):
                raise ValueError(f"non-finite coefficient {value!r} at {key}")


# The argument checks live here, not in ``engine``, so that every module,
# the command line and ``oracle`` included, runs them without loading the
# decision.  Their messages, and those of ``documents``, show a bad value by
# ``_shown``.  Every integer a caller passes, a variable count, step budget,
# seed, variable index, sequence index or exponent, goes through
# ``operator.index`` once: a float (2.0 included), a string or None raises
# TypeError rather than being read as another integer.

#: The longest repr of a bad value that a message shows whole.
_SHOWN = 100


def _shown(value: object) -> str:
    """``repr(value)``, or its first ``_SHOWN`` characters and "..." when it
    is longer, built from ``_pieces`` only as far as it is shown."""
    text = ""
    for piece in _pieces(value):
        text += piece
        if len(text) > _SHOWN:
            return text[:_SHOWN] + "..."
    return text


def _pieces(value: object):
    """``repr`` of a value in pieces: a list or a dict item by item, a
    string by its first ``_SHOWN + 1`` characters, and an integer of more
    than 4 bits a shown digit by its leading digits, which stay within
    Python's 4300-digit limit on converting an integer to text."""
    if isinstance(value, (list, dict)):
        yield "{" if isinstance(value, dict) else "["
        for n, item in enumerate(value):
            yield ", " if n else ""
            if isinstance(value, dict):
                yield from _pieces(item)
                yield ": "
                item = value[item]
            yield from _pieces(item)
        yield "}" if isinstance(value, dict) else "]"
    elif isinstance(value, int) and value.bit_length() > 4 * _SHOWN:
        # at least _SHOWN + 1 leading digits, whatever the rounding of the log
        drop = int((value.bit_length() - 1) * math.log10(2)) - _SHOWN - 1
        yield ("-" if value < 0 else "") + repr(abs(value) // 10**drop)
    else:
        yield repr(value[: _SHOWN + 1] if isinstance(value, str) else value)


#: The largest variable count.  A larger one is an input error rather than a
#: request for exponent tuples of that length: an empty pair on 10**6
#: variables is still decided in about a second, while a count past
#: ``sys.maxsize`` cannot even size a tuple.
MAX_VARIABLES = 10**6


def _variables(count) -> int:
    """``count`` by ``operator.index`` (TypeError for a float), ValueError
    unless 1 <= count <= ``MAX_VARIABLES``."""
    return _counted(count, 1, MAX_VARIABLES, "variables", "need at least one variable")


def _axis(j: int, variables: int) -> int:
    """The axis, from 0, of variable ``j`` of ``variables``: ``j`` by
    ``operator.index`` (TypeError for a float, 1.0 included), then
    IndexError unless 1 <= j <= variables.  Run where an index comes in
    from outside; the step primitives of ``su2`` and ``box`` take checked
    indices."""
    j = operator.index(j)
    if not 1 <= j <= variables:
        raise IndexError(f"variable index {j} out of range 1..{variables}")
    return j - 1


#: The largest step budget.  The decision keeps one record per identity pad
#: it takes, so a budget of n steps can cost memory in proportion to n: a
#: budget of 10**9 would ask for tens of gigabytes before it answered.
MAX_STEPS = 10**6


def _budget(n) -> int:
    """``n`` by ``operator.index`` (TypeError for a float), ValueError
    unless 0 <= n <= ``MAX_STEPS``."""
    return _counted(n, 0, MAX_STEPS, "steps", "step count must be non-negative")


def _counted(value, low: int, high: float, unit: str, below: str) -> int:
    """``value`` by ``operator.index``, then ValueError below ``low`` with
    the message ``below``, then above ``high`` (``math.inf``: no bound) as
    "need at most ``high`` ``unit``"; each message ends with the value as
    ``_shown``.  Counts, budgets and seeds pass here; variable indices pass
    ``_axis``, exponents and sequence indices ``operator.index`` itself."""
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{below}, got {_shown(value)}")
    if value > high:
        raise ValueError(f"need at most {high} {unit}, got {_shown(value)}")
    return value


def _tolerance(tol: float) -> float:
    """``tol``, or ValueError unless it is a finite number >= 0: no
    comparison means anything at a NaN, infinite or negative tolerance."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol
