"""Documented numerical limit of the peel-one-factor recursion.

Each reduction reads its angle off the top coefficient slice of the current
pair.  When that slice is small (magnitude s), whatever absolute defect d
the pair carries turns into an angle error of order d/s, which re-enters the
reduced pair at full coefficient scale: the defect is amplified by roughly
1/s per level.  A freshly evaluated pair starts with a defect around 1e-16
from rounding its coefficients to doubles, so a chain whose slices stay near
1e-3 for six or more consecutive levels pushes the defect past the 1e-9
tolerance and the decision honestly rejects.

For the strict peel this is a property of the rounded input, not of the
implementation: the amplification acts on the input pair's own distance
from the set of exactly realizable pairs, so no working precision lets the
strict peel recover it (verified against a 50-digit replay of the same
chain).  A decision that takes the peel's angles only as a proposal and
certifies them by rebuilding the pair is not bound by it.  The instance
pinned below is such a chain; the assertions record the behaviour so a
regression that silently changes it is caught.  The closed-form
single-variable characterization, which does not peel, accepts such chains.
"""

from __future__ import annotations

from mqsp import PhaseReduction, check_necessary, decide, qsp1_characterize, run_decision
from mqsp.engine import effective_degrees
from helpers import oracle_pair

TOL = 1e-9

# m=1, n=9, continuous angles: seven consecutive levels with top slices
# between 2e-4 and 4e-3
ILL_CONDITIONED = (1, 9, 149)


def walk_mismatches(pair, steps):
    """Each level's top-slice proportionality mismatch (via the best
    unimodular ratio), on the level inputs of the decision's own walk: the
    pair, then each reduced pair its trace records."""
    trace = run_decision(pair, steps, TOL)
    levels = [pair] + [step.state for step in trace.steps if isinstance(step, PhaseReduction)]
    if trace.accepted:
        levels.pop()  # the base case's input, not a level's
    mismatches = []
    for current in levels:
        degs = effective_degrees(current, TOL)
        j = max(range(1, current.variables + 1), key=lambda i: degs[i - 1])
        cp = current.p.coeff_slice(j, degs[j - 1])
        cq = current.q.coeff_slice(j, degs[j - 1])
        ref = max(cq.terms, key=lambda k: abs(cq.terms[k]))
        ratio = cp.terms.get(ref, 0j) / cq.terms[ref]
        ratio /= abs(ratio)
        mismatches.append(cp.max_deviation(cq * ratio))
    return mismatches


def test_ill_conditioned_chain_amplifies_input_rounding():
    m, n, seed = ILL_CONDITIONED
    pair, _ = oracle_pair(m, n, seed)

    # the pair itself is structurally clean: every necessary filter passes
    # and the first level's slices are proportional almost to the last bit
    assert check_necessary(pair, n, TOL).all_ok
    mismatches = walk_mismatches(pair, n)
    assert mismatches[0] < 1e-15

    # the mismatch grows by orders of magnitude per level until it crosses
    # the tolerance, and the decision rejects at that point
    assert mismatches[-1] > TOL
    assert len(mismatches) < n
    assert decide(pair, n, TOL) is False

    # distinct from a structural rejection: the final miss is marginal
    # (within a few orders of the tolerance), not a gross mismatch
    assert mismatches[-1] < 1e-6


def test_closed_form_accepts_what_the_peel_rejects():
    # the oracle builds every pair to be realizable at its own n, and the
    # closed form accepts all of them; the peel rejects some on rounding
    # (18 of these 60 at the time of writing, a count a sounder decision
    # may lower), but accepts none that the closed form rejects
    seeds = range(100000, 100060)
    pairs = {seed: oracle_pair(1, 20, seed)[0] for seed in seeds}
    closed = {seed for seed, pair in pairs.items() if qsp1_characterize(pair, 20, TOL)}
    peeled = {seed for seed, pair in pairs.items() if decide(pair, 20, TOL)}
    assert closed == set(seeds)
    assert peeled <= closed
