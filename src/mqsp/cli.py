"""Command-line front end: ``decide`` prints its verdict and its trace only;
``check`` prints the necessary-condition filter report.

Exit codes: 0 for success / a true decision, 1 for a false decision or a
verification mismatch, 2 for usage or input errors, unreadable inputs and
unwritable outputs included.  Reports go to stdout, errors to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import documents, fixtures, laurent
from .oracle import ANGLE_MODES, OracleConfig, random_sequence
from .su2 import evaluate_sequence

# check, decide and synthesize import the decision engine when they run, so
# that gen, verify and fixture never compile it.

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


class InputError(Exception):
    """User-facing input problem; message printed to stderr, exit 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqsp",
        description=(
            "Decide whether a pair of multivariable Laurent polynomials is "
            "realizable as an n-step signal-processing product, and "
            "synthesize the angle and index parameters when it is."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, steps=True):
        if steps:
            p.add_argument("--steps", type=int, required=True, metavar="N",
                           help="number of signal operators")
        p.add_argument("--tolerance", type=_tolerance, default=1e-9, metavar="TOL",
                       help="relative tolerance for coefficient comparisons, a finite "
                            "number >= 0 (default 1e-9)")

    p = sub.add_parser("decide", help="decide constructibility of a pair in N steps")
    p.add_argument("input", help="pair document (JSON)")
    add_common(p)
    p.set_defaults(handler=cmd_decide)

    p = sub.add_parser("synthesize", help="decide and extract angle/index parameters")
    p.add_argument("input", help="pair document (JSON)")
    add_common(p)
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the sequence document here (default: stdout)")
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("verify", help="evaluate a sequence and compare against a pair")
    p.add_argument("pair", help="pair document (JSON)")
    p.add_argument("sequence", help="sequence document (JSON)")
    add_common(p, steps=False)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("gen", help="generate a matched random pair/sequence from a seed")
    p.add_argument("--variables", "-m", type=int, required=True)
    p.add_argument("--steps", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--angle-mode", choices=ANGLE_MODES, default="continuous")
    p.add_argument("--pair-out", required=True, metavar="PATH")
    p.add_argument("--sequence-out", required=True, metavar="PATH")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("check", help="run the necessary-condition filters on a pair")
    p.add_argument("input", help="pair document (JSON)")
    add_common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("fixture", help="write a built-in pair document")
    p.add_argument("name", help=f"one of: {', '.join(fixtures.fixture_names())}")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the pair document here (default: stdout)")
    p.set_defaults(handler=cmd_fixture)

    return parser


# -- report rendering ---------------------------------------------------------


#: One line per trace step, by the step's type name: keyed by name, so that
#: rendering a trace needs no import of the engine.
_TRACE_LINES = {
    "IdentityPad": (
        "  [n={0.steps_left}] degree sum leaves room for an identity padding; two steps absorbed"
    ),
    "PhaseReduction": "  [n={0.steps_left}] peeled variable a{0.index} at phase {0.phase:.12g}",
    "BaseAccept": "  [n=0] pure phase rotation reached, phi0 = {0.phase0:.12g}",
    "Reject": "  [n={0.steps_left}] reject: {0.reason}",
}

#: The label of each flag of ``NecessaryReport._FLAGS``, in its order.
_NECESSARY_LABELS = (
    "inversion symmetry of P",
    "inversion antisymmetry of Q",
    "per-variable degree equality",
    "P nonzero",
    "degree-sum parity",
    "unit-norm identity",
)


def _format_trace(trace: DecisionTrace) -> str:
    lines = ["trace:"]
    lines += (_TRACE_LINES[type(step).__name__].format(step) for step in trace.steps)
    return "\n".join(lines)


def _format_necessary(report: NecessaryReport) -> str:
    degs = " ".join(f"a{j + 1}={d}" for j, d in enumerate(report.degrees))
    lines = [f"necessary conditions (steps={report.steps}):"]
    for label, name in zip(_NECESSARY_LABELS, report._FLAGS):
        lines.append(f"  {label:<31}{'ok' if getattr(report, name) else 'FAIL'}")
    lines.append(f"  degrees: {degs} (sum={report.degree_sum})")
    return "\n".join(lines)


# -- input helpers ------------------------------------------------------------


def _load(loader, path: str):
    """Read a document with ``loader`` (``documents.load_pair`` or
    ``documents.load_sequence``), turning parse and validation failures
    into input errors that name the file; ``OSError`` is reported by
    ``main``."""
    try:
        return loader(path)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _tolerance(text: str) -> float:
    """``--tolerance``: a finite number >= 0, the library's rule
    (``laurent._tolerance``).  An infinite tolerance would accept any pair,
    and a NaN or negative one would reject every pair."""
    try:
        return laurent._tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None


def _pair(args) -> PQPair:
    """The pair document ``args.input``, read once ``--steps`` passes the
    library's budget rule (``laurent._budget``)."""
    try:
        laurent._budget(args.steps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _load(documents.load_pair, args.input)


# -- subcommands ---------------------------------------------------------------


def cmd_decide(args) -> int:
    from .engine import run_decision

    pair = _pair(args)
    trace = run_decision(pair, args.steps, args.tolerance)
    verdict = "constructible" if trace.accepted else "not constructible"
    print(f"result: {verdict} in {args.steps} steps (tolerance {args.tolerance:g})")
    print(_format_trace(trace))
    return EXIT_TRUE if trace.accepted else EXIT_FALSE


def cmd_synthesize(args) -> int:
    from .engine import synthesize

    pair = _pair(args)
    result = synthesize(pair, args.steps, args.tolerance)
    if not result.constructible:
        print(f"result: not constructible in {args.steps} steps")
        print(_format_trace(result.trace))
        return EXIT_FALSE
    if args.output:
        documents.save_sequence(result.sequence, args.output)
        print(f"result: constructible in {args.steps} steps")
        print(f"wrote sequence document to {args.output}")
    else:
        sys.stdout.write(documents.dumps(documents.sequence_to_document(result.sequence)))
    return EXIT_TRUE


def cmd_verify(args) -> int:
    pair = _load(documents.load_pair, args.pair)
    seq = _load(documents.load_sequence, args.sequence)
    if seq.variables != pair.variables:
        raise InputError(
            f"variable-count mismatch: pair has {pair.variables}, "
            f"sequence has {seq.variables}"
        )
    built = evaluate_sequence(seq)
    deviation = built.max_deviation(pair)
    matches = built.approx_eq(pair, args.tolerance)
    print(f"max coefficient deviation: {deviation:.6g}")
    print(f"result: {'match' if matches else 'mismatch'} at tolerance {args.tolerance:g}")
    return EXIT_TRUE if matches else EXIT_FALSE


def cmd_gen(args) -> int:
    try:
        cfg = OracleConfig(args.variables, args.steps, args.seed, args.angle_mode)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    seq = random_sequence(cfg)
    pair = evaluate_sequence(seq)
    metadata = {
        "name": f"oracle-m{cfg.variables}-n{cfg.steps}-seed{cfg.seed}",
        "source": f"{cfg.angle_mode} angles, seed {cfg.seed} (mt19937)",
    }
    documents.save_pair(pair, args.pair_out, metadata)
    documents.save_sequence(seq, args.sequence_out)
    print(f"wrote pair document to {args.pair_out}")
    print(f"wrote sequence document to {args.sequence_out}")
    return EXIT_TRUE


def cmd_check(args) -> int:
    from .engine import check_necessary

    pair = _pair(args)
    report = check_necessary(pair, args.steps, args.tolerance)
    print(_format_necessary(report))
    print(f"result: {'all filters pass' if report.all_ok else 'rejected by a filter'}")
    return EXIT_TRUE if report.all_ok else EXIT_FALSE


def cmd_fixture(args) -> int:
    try:
        pair = fixtures.fixture_pair(args.name)
    except KeyError as exc:
        raise InputError(str(exc.args[0])) from exc
    metadata = fixtures.fixture_metadata(args.name)
    if args.output:
        documents.save_pair(pair, args.output, metadata)
        print(f"wrote {args.name} pair document to {args.output}")
    else:
        sys.stdout.write(documents.dumps(documents.pair_to_document(pair, metadata)))
    return EXIT_TRUE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
