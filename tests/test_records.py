"""The immutable record types, and what importing the package loads."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from mqsp import (
    BaseAccept,
    DecisionTrace,
    IdentityPad,
    LaurentPoly,
    Mat2,
    MqspSequence,
    NecessaryReport,
    OracleConfig,
    PhaseReduction,
    PQPair,
    Reject,
    RoundtripReport,
    SynthesisResult,
    check_necessary,
    identity_matrix,
    roundtrip_check,
    run_decision,
    synthesize,
)
from mqsp.laurent import MAX_STEPS, MAX_VARIABLES
from helpers import oracle_pair

SRC = Path(__file__).resolve().parent.parent / "src"


def every_record():
    """One instance of each of the 12 record types, from real computations
    where there are any; the trace's reductions hold a box or terms."""
    pair, seq = oracle_pair(2, 5, seed=3)
    result = synthesize(pair, 5)
    reduction = next(s for s in result.trace.steps if isinstance(s, PhaseReduction))
    return [
        identity_matrix(2),
        pair,
        seq,
        IdentityPad(4),
        reduction,
        BaseAccept(0.25),
        Reject(3, "reason"),
        result.trace,
        result,
        check_necessary(pair, 5),
        OracleConfig(2, 5, 3),
        roundtrip_check(seq),
    ]


def test_there_is_one_of_each_record_type():
    assert {type(record) for record in every_record()} == {
        Mat2, PQPair, MqspSequence, IdentityPad, PhaseReduction, BaseAccept, Reject,
        DecisionTrace, SynthesisResult, NecessaryReport, OracleConfig, RoundtripReport,
    }


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    name = record.__slots__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is value
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_pickle_and_copy_round_trip(record):
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is type(record)
        assert again == record
        assert repr(again) == repr(record)


def test_equality_is_by_type_and_value():
    assert IdentityPad(4) == IdentityPad(4)
    assert IdentityPad(4) != IdentityPad(6)
    # same field values, different types: a tuple would call these equal
    assert IdentityPad(4) != BaseAccept(4.0)
    assert BaseAccept(4.0) != IdentityPad(4)
    assert Reject(2, "x") != (2, "x")
    assert Reject(2, "x") == Reject(2, "x")
    pair, _ = oracle_pair(1, 3, seed=1)
    assert PQPair(pair.p, pair.q) == pair
    assert PQPair(pair.p, pair.q * 2.0) != pair


def test_hash_follows_equality():
    assert hash(IdentityPad(4)) == hash(IdentityPad(4))
    assert hash(Reject(2, "x")) == hash(Reject(2, "x"))
    assert len({IdentityPad(4), IdentityPad(4), BaseAccept(4.0), IdentityPad(6)}) == 3
    assert hash(OracleConfig(2, 3, 1)) == hash(OracleConfig(variables=2, steps=3, seed=1))
    # a record holding polynomials is unhashable, as LaurentPoly is
    pair, _ = oracle_pair(1, 3, seed=1)
    with pytest.raises(TypeError):
        hash(pair)


def test_repr_names_the_fields():
    assert repr(IdentityPad(4)) == "IdentityPad(steps_left=4)"
    assert repr(Reject(0, "no")) == "Reject(steps_left=0, reason='no')"
    assert repr(OracleConfig(2, 3, 1)) == (
        "OracleConfig(variables=2, steps=3, seed=1, angle_mode='continuous')"
    )
    assert repr(MqspSequence(1, [0, 0.5], [1])) == (
        "MqspSequence(variables=1, phases=(0.0, 0.5), indices=(1,))"
    )
    pair, _ = oracle_pair(1, 3, seed=1)
    # the reduced pair is left out
    assert repr(PhaseReduction(3, 1, 0.5, pair)) == (
        "PhaseReduction(steps_left=3, index=1, phase=0.5)"
    )
    trace = run_decision(pair, 3)
    assert repr(trace).startswith("DecisionTrace(steps=(PhaseReduction(steps_left=3, index=")


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_keyword_construction_and_defaults(record):
    # every record takes its fields by position or by keyword, in
    # ``__slots__`` order, and refuses a call that does not bind them
    build, names = type(record), type(record).__slots__
    values = [getattr(record, name) for name in names]
    assert build(**dict(zip(names, values))) == build(*values) == record
    with pytest.raises(TypeError):
        build(*values, values[0])
    with pytest.raises(TypeError):
        build(*values, colour="red")
    with pytest.raises(TypeError):
        build(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        build(**dict(zip(names[1:], values[1:])))

    cfg = OracleConfig(variables=2, steps=3, seed=1)
    assert cfg.angle_mode == "continuous"
    assert cfg == OracleConfig(2, 3, 1, "continuous")
    assert OracleConfig(2, 3, 1, angle_mode="discrete").angle_mode == "discrete"
    seq = MqspSequence(variables=1, indices=[True], phases=[0, 1])
    assert seq.phases == (0.0, 1.0) and type(seq.phases[0]) is float
    assert seq.indices == (1,) and type(seq.indices[0]) is int
    report = NecessaryReport(
        symmetry_p=True, symmetry_q=True, degree_equality=True, p_nonzero=True,
        parity_ok=True, normalization_ok=False, degrees=(1,), degree_sum=1, steps=1,
    )
    assert not report.all_ok
    with pytest.raises(TypeError):
        OracleConfig(2, 3)
    with pytest.raises(TypeError):
        OracleConfig(2, 3, 1, colour="red")
    with pytest.raises(TypeError):
        IdentityPad(4, 5)


ONE_VAR = LaurentPoly.constant(1, 1.0)
TWO_VARS = LaurentPoly.zero(2)
# how a message shows 10**k and -10**k for k >= 100: by their first 100
# characters and "..."
TENS = "1" + "0" * 99 + r"\.\.\."
MINUS_TENS = "-1" + "0" * 98 + r"\.\.\."


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PQPair(ONE_VAR, TWO_VARS), r"^variable-count mismatch: 1 != 2$"),
        (lambda: Mat2(ONE_VAR, ONE_VAR, TWO_VARS, ONE_VAR), "^matrix entries must share"),
        (lambda: MqspSequence(0, [0.0], []), r"^need at least one variable, got 0$"),
        (lambda: MqspSequence(1, [0.0, float("inf")], [1]), r"^phase inf is not finite$"),
        (lambda: MqspSequence(1, [0.0], [1]), r"^got 1 phases for 1 indices; expected one"),
        (lambda: MqspSequence(2, [0.0, 0.0], [3]), r"^index 3 out of range 1\.\.2$"),
        (lambda: OracleConfig(0, 1, 1), r"^need at least one variable, got 0$"),
        (lambda: OracleConfig(1, -1, 1), r"^step count must be non-negative, got -1$"),
        (
            lambda: OracleConfig(1, 1, 1, "grid"),
            r"^angle_mode must be one of \('continuous', 'discrete'\), got 'grid'$",
        ),
        # the one variable-count check that all three constructors share
        (lambda: LaurentPoly(0), r"^need at least one variable, got 0$"),
        *(
            (build, rf"^need at most {MAX_VARIABLES} variables, got {MAX_VARIABLES + 1}$")
            for build in (
                lambda: LaurentPoly(MAX_VARIABLES + 1),
                lambda: MqspSequence(MAX_VARIABLES + 1, [0.0], []),
                lambda: OracleConfig(MAX_VARIABLES + 1, 1, 1),
            )
        ),
        (lambda: OracleConfig(1, MAX_STEPS + 1, 1), r"^need at most 1000000 steps, got 1000001$"),
        # a bad value shows its first 100 characters, also when it is an
        # integer past Python's 4300-digit limit on conversion to text
        (lambda: OracleConfig(1, 10**200, 1), rf"^need at most 1000000 steps, got {TENS}$"),
        (lambda: OracleConfig(1, 10**5000, 1), rf"^need at most 1000000 steps, got {TENS}$"),
        (
            lambda: OracleConfig(10**5000, 1, 1),
            rf"^need at most {MAX_VARIABLES} variables, got {TENS}$",
        ),
        (
            lambda: OracleConfig(1, -(10**5000), 1),
            rf"^step count must be non-negative, got {MINUS_TENS}$",
        ),
        (lambda: LaurentPoly(-(10**5000)), rf"^need at least one variable, got {MINUS_TENS}$"),
    ],
)
def test_construction_checks_raise_as_before(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_sequence_phases_convert_before_the_checks():
    with pytest.raises(OverflowError):
        MqspSequence(1, [0.0, 10**400], [1])
    with pytest.raises(ValueError):
        MqspSequence(1, ["x", 0.0], [1])


def run_bare(code: str, cwd: Path | None = None) -> str:
    """The stdout of ``code`` run in a fresh interpreter without ``site``,
    with the package's source on the path."""
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def loaded_by(code: str, cwd: Path | None = None) -> list[str]:
    """The package modules a fresh interpreter holds after running ``code``."""
    probe = "; print(*sorted(k for k in sys.modules if k.split('.')[0] == 'mqsp'))"
    return run_bare(f"import sys; {code}{probe}", cwd).split()


def test_command_line_import_loads_no_dataclasses():
    # the records generate no code, so importing the command line and the
    # engine it loads to decide pulls in neither dataclasses nor what it
    # imports (inspect, ast, dis), nor typing; the standard modules the
    # package uses are imported first, so that only what the package itself
    # adds is counted
    code = (
        "import sys, argparse, cmath, collections.abc, importlib, itertools, json, math, "
        "operator, random; "
        "watched = {'dataclasses', 'inspect', 'ast', 'dis', 'typing'}; "
        "before = watched & set(sys.modules); "
        "import mqsp.cli; "
        "assert 'mqsp.engine' not in sys.modules; "
        "import mqsp.engine; "
        "print(sorted(watched & set(sys.modules) - before))"
    )
    assert run_bare(code).strip() == "[]"


def test_package_import_loads_no_submodule():
    assert loaded_by("import mqsp") == ["mqsp"]


def test_document_set_up_loads_no_decision(tmp_path):
    # what the command-line benchmark prepares before it starts its calls:
    # building and saving the witness pair loads neither the decision nor
    # the half box and its step kernel
    set_up = (
        "from mqsp import documents, fixtures; "
        "documents.save_pair(fixtures.counterexample_pair(), 'w.json')"
    )
    loaded = loaded_by(set_up, tmp_path)
    assert "mqsp.documents" in loaded and "mqsp.fixtures" in loaded
    assert not {"mqsp.box", "mqsp.engine", "mqsp.oracle"} & set(loaded)
    # evaluating a sequence steps it on the half box
    evaluated = loaded_by(
        f"{set_up}; import mqsp; "
        "mqsp.evaluate_sequence(mqsp.MqspSequence(2, [0.1, 0.2, 0.3], [1, 2]))",
        tmp_path,
    )
    assert "mqsp.box" in evaluated and "mqsp.engine" not in evaluated


def test_only_the_deciding_commands_load_the_engine(tmp_path):
    calls = [
        ["gen", "-m", "2", "--steps", "6", "--seed", "7", "--pair-out", "p.json",
         "--sequence-out", "s.json"],
        ["verify", "p.json", "s.json"],
        ["fixture", "identity", "-o", "i.json"],
        ["decide", "p.json", "--steps", "6"],
    ]
    # each command in a fresh interpreter, as the console script runs it;
    # only gen draws, so only gen loads random
    lines = []
    for argv in calls:
        code = (
            "import sys, contextlib, io; from mqsp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'mqsp.engine' in sys.modules, 'random' in sys.modules)"
        )
        lines.append(f"{argv[0]} {run_bare(code, tmp_path).strip()}")
    assert lines == [
        "gen 0 False True",
        "verify 0 False False",
        "fixture 0 False False",
        "decide 0 True False",
    ]


def test_public_names_load_on_first_use():
    code = (
        "import importlib, sys, mqsp\n"
        "for name in mqsp.__all__:\n"
        "    assert name not in vars(mqsp), name\n"
        "    value = getattr(mqsp, name)\n"
        "    home = importlib.import_module('mqsp.' + mqsp._SOURCES[name])\n"
        "    assert value is getattr(home, name) and vars(mqsp)[name] is value, name\n"
        "print(sorted(mqsp._SOURCES) == sorted(mqsp.__all__))"
    )
    assert run_bare(code).strip() == "True"


def test_the_level_functions_are_public():
    # the degrees find_phase reads come from effective_degrees, so all
    # three level functions import from the package
    code = (
        "import mqsp\n"
        "from mqsp import effective_degrees, find_phase, reduce_step\n"
        "from mqsp import engine\n"
        "print(effective_degrees is engine.effective_degrees, 'effective_degrees' in mqsp.__all__)"
    )
    assert run_bare(code).strip() == "True True"


def test_star_import_and_dir_cover_every_public_name():
    code = (
        "import mqsp\n"
        "listed = set(dir(mqsp))\n"
        "space = {}\n"
        "exec('from mqsp import *', space)\n"
        "print(sorted(set(mqsp.__all__) - listed), sorted(set(mqsp.__all__) - set(space)))"
    )
    assert run_bare(code).strip() == "[] []"


def test_unknown_name_is_an_attribute_error():
    code = (
        "import mqsp\n"
        "try:\n"
        "    mqsp.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    from mqsp import no_such_name\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)"
    )
    assert run_bare(code).splitlines() == [
        "module 'mqsp' has no attribute 'no_such_name'",
        "ImportError",
    ]
