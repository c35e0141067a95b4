"""Seeded random instance generation and end-to-end self-verification.

Sequences drawn here feed the property suites: every generated sequence
evaluates to a pair that must be accepted at its own step count, rejected at
one more step (parity), accepted again at two more (padding), and
reproducible from the synthesized parameters.
"""

from __future__ import annotations

import math

from .laurent import EPS, _budget, _variables
from .su2 import MqspSequence, _Record, evaluate_sequence

ANGLE_MODES = ("continuous", "discrete")

#: Pinned pseudo-random source, recorded in diagnostics.  Streams are stable
#: across runs for a fixed seed; matching them from other generators is a
#: non-goal.
GENERATOR = "python-random-mt19937"


class OracleConfig(_Record):
    """Free parameters of one generated instance.

    ``continuous`` draws angles uniformly from (-pi, pi]; ``discrete`` draws
    multiples of pi/12, whose exact pi/2 cancellation patterns keep the degree
    sum below the step count and so exercise the padding branch.
    ``variables`` passes the variable count check of ``LaurentPoly``
    (``laurent._variables``), and ``steps`` goes through ``operator.index``
    as a budget does for ``engine.run_decision``: a float raises TypeError.
    """

    __slots__ = ("variables", "steps", "seed", "angle_mode")

    def __init__(self, variables: int, steps: int, seed: int, angle_mode: str = "continuous"):
        variables = _variables(variables)
        steps = _budget(steps)
        if angle_mode not in ANGLE_MODES:
            raise ValueError(f"angle_mode must be one of {ANGLE_MODES}, got {angle_mode!r}")
        _Record.__init__(self, variables, steps, seed, angle_mode)


def random_sequence(cfg: OracleConfig) -> MqspSequence:
    """Deterministic sequence for the seed: all phases drawn first, then indices."""
    import random  # loaded here: only gen and the test oracles draw

    rng = random.Random(cfg.seed)
    count = cfg.steps + 1
    if cfg.angle_mode == "continuous":
        phases = tuple(math.pi - 2.0 * math.pi * rng.random() for _ in range(count))
    else:
        phases = tuple(rng.randrange(-11, 13) * (math.pi / 12.0) for _ in range(count))
    indices = tuple(rng.randint(1, cfg.variables) for _ in range(cfg.steps))
    return MqspSequence(cfg.variables, phases, indices)


class RoundtripReport(_Record):
    """Per-assertion diagnostics of the soundness/completeness self-check:
    ``generator`` (str), ``steps`` (int), the outcomes ``constructible`` to
    ``pad_accepted`` (bool) and ``max_deviation`` (float, of the rebuilt
    pair; inf when the pair was not accepted)."""

    __slots__ = (
        "generator",
        "steps",
        "constructible",
        "resynthesized",
        "parity_rejected",
        "pad_accepted",
        "max_deviation",
    )

    #: The four outcomes that must all hold for the check to pass.
    _FLAGS = __slots__[2:6]

    @property
    def passed(self) -> bool:
        return all(getattr(self, name) for name in self._FLAGS)


def roundtrip_check(seq: MqspSequence, tol: float = EPS) -> RoundtripReport:
    """Evaluate a sequence and verify the full decision contract on its pair.

    Checks, in order: the pair is accepted at the sequence's step count; the
    synthesized parameters rebuild the pair within ``tol``; one extra step is
    rejected; two extra steps are accepted.  Failures are reported, not
    raised.
    """
    from .engine import decide, synthesize  # loaded here: drawing needs no decision

    pair = evaluate_sequence(seq)
    n = seq.steps
    constructible = decide(pair, n, tol)
    resynthesized = False
    deviation = math.inf
    if constructible:
        result = synthesize(pair, n, tol)
        rebuilt = evaluate_sequence(result.sequence)
        deviation = rebuilt.max_deviation(pair)
        resynthesized = rebuilt.approx_eq(pair, tol)
    return RoundtripReport(
        generator=GENERATOR,
        steps=n,
        constructible=constructible,
        resynthesized=resynthesized,
        parity_rejected=not decide(pair, n + 1, tol),
        pad_accepted=decide(pair, n + 2, tol),
        max_deviation=deviation,
    )
