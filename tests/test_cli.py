"""Exit codes and reports of the command-line front end."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mqsp import LaurentPoly, PQPair
from mqsp.cli import main
from mqsp.documents import save_pair
from helpers import OVERFLOWING_MISMATCH

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ce_path(tmp_path):
    path = tmp_path / "counterexample.json"
    assert main(["fixture", "counterexample-2-2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def identity_path(tmp_path):
    path = tmp_path / "identity.json"
    assert main(["fixture", "identity", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def signal_path(tmp_path):
    path = tmp_path / "signal.json"
    assert main(["fixture", "signal-operator", "-o", str(path)]) == 0
    return str(path)


def write_sequence(tmp_path, name, variables, phases, indices):
    path = tmp_path / name
    path.write_text(
        json.dumps({"variables": variables, "phases": phases, "indices": indices})
    )
    return str(path)


# -- decide ---------------------------------------------------------------


def test_decide_counterexample_rejected(ce_path, capsys):
    assert main(["decide", ce_path, "--steps", "4"]) == 1
    out = capsys.readouterr().out
    assert "not constructible" in out
    assert "trace:" in out
    # the filter report is check's; decide prints its verdict and trace only
    assert "necessary conditions" not in out


DECIDE_OUTPUTS = [
    ("identity", 0, 0, [
        "result: constructible in 0 steps (tolerance 1e-09)",
        "trace:",
        "  [n=0] pure phase rotation reached, phi0 = 0",
    ]),
    ("identity", 2, 0, [
        "result: constructible in 2 steps (tolerance 1e-09)",
        "trace:",
        "  [n=2] degree sum leaves room for an identity padding; two steps absorbed",
        "  [n=0] pure phase rotation reached, phi0 = 0",
    ]),
    ("signal-operator", 1, 0, [
        "result: constructible in 1 steps (tolerance 1e-09)",
        "trace:",
        "  [n=1] peeled variable a1 at phase 0",
        "  [n=0] pure phase rotation reached, phi0 = 0",
    ]),
    ("counterexample-2-2", 4, 1, [
        "result: not constructible in 4 steps (tolerance 1e-09)",
        "trace:",
        "  [n=4] reject: no variable has unimodular-proportional top coefficient slices",
    ]),
    ("counterexample-2-2", 3, 1, [
        "result: not constructible in 3 steps (tolerance 1e-09)",
        "trace:",
        "  [n=3] reject: degree sum neither equals the step count nor leaves room for padding",
    ]),
]


@pytest.mark.parametrize("name,steps,code,lines", DECIDE_OUTPUTS)
def test_decide_prints_the_verdict_and_the_trace_only(name, steps, code, lines, tmp_path, capsys):
    path = tmp_path / "pair.json"
    assert main(["fixture", name, "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["decide", str(path), "--steps", str(steps)]) == code
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_decide_accepts_what_the_degree_filter_fails(tmp_path, capsys):
    # a realizable pair of degrees (4, 2) plus a 1e-12 term above them: the
    # decision reads degrees at its tolerance and accepts, while the degree
    # filter counts every stored term
    pair_out = tmp_path / "pair.json"
    args = [
        "gen", "-m", "2", "--steps", "6", "--seed", "7",
        "--pair-out", str(pair_out), "--sequence-out", str(tmp_path / "seq.json"),
    ]
    assert main(args) == 0
    doc = json.loads(pair_out.read_text())
    doc["P"].append({"exponents": [6, 0], "re": 1e-12, "im": 0.0})
    pair_out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["decide", str(pair_out), "--steps", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("result: constructible in 6 steps") and "FAIL" not in out
    assert main(["check", str(pair_out), "--steps", "6"]) == 1
    assert "per-variable degree equality   FAIL" in capsys.readouterr().out


def test_nan_coefficient_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"variables": 1, "P": [{"exponents": [0], "re": NaN, "im": 0.0}], "Q": []}')
    assert main(["decide", str(path), "--steps", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err


def test_decide_identity_accepted(identity_path):
    assert main(["decide", identity_path, "--steps", "0"]) == 0


def test_decide_truncated_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"variables": 1,')
    assert main(["decide", str(path), "--steps", "0"]) == 2
    # the file is named once
    assert capsys.readouterr().err == (
        f"error: {path}: invalid JSON (Expecting property name enclosed in double "
        "quotes: line 1 column 17 (char 16))\n"
    )


def test_decide_missing_file(tmp_path):
    assert main(["decide", str(tmp_path / "nope.json"), "--steps", "0"]) == 2


def test_decide_negative_steps(identity_path):
    assert main(["decide", identity_path, "--steps", "-1"]) == 2


def test_usage_error_exit_code():
    assert main(["decide"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("command", ["decide", "synthesize", "verify", "check"])
@pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "-1", "x"])
def test_tolerance_must_be_finite_and_non_negative(command, tolerance, ce_path, tmp_path, capsys):
    # an infinite tolerance accepted the witness pair as constructible, and
    # a NaN or negative one reported filter rejections with exit 1
    if command == "verify":
        args = ["verify", ce_path, write_sequence(tmp_path, "seq.json", 2, [0.0, 0.0], [1])]
    else:
        args = [command, ce_path, "--steps", "4"]
    assert main([*args, f"--tolerance={tolerance}"]) == 2
    assert "--tolerance" in capsys.readouterr().err


def test_zero_tolerance_is_accepted(identity_path):
    assert main(["decide", identity_path, "--steps", "0", "--tolerance", "0"]) == 0


@pytest.mark.parametrize("command", ["decide", "synthesize"])
def test_overflowing_peel_exits_1_with_its_trace(command, tmp_path):
    # P = 1e308 (a + a^-1), Q = 1e308 (a - a^-1): the peel doubles the
    # constant past the largest double, which used to end in a traceback
    path = tmp_path / "overflow.json"
    c = 1e308
    p, q = LaurentPoly(1, {(1,): c, (-1,): c}), LaurentPoly(1, {(1,): c, (-1,): -c})
    save_pair(PQPair(p, q), str(path))
    run = subprocess.run(
        [sys.executable, "-m", "mqsp.cli", command, str(path), "--steps", "1"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 1, run.stderr
    assert run.stderr == ""
    tolerance = " (tolerance 1e-09)" if command == "decide" else ""
    assert run.stdout.splitlines() == [
        f"result: not constructible in 1 steps{tolerance}",
        "trace:",
        "  [n=1] reject: a peeled coefficient overflows a double",
    ]


def write_overflow_document(tmp_path, name) -> str:
    """``OVERFLOWING_MISMATCH``, or a coefficient whose parts are finite and
    whose modulus is not, written as a pair document."""
    path = tmp_path / f"{name}.json"
    if name == "mismatch":
        save_pair(OVERFLOWING_MISMATCH, str(path))
    else:
        term = {"exponents": [0], "re": 1.5e308, "im": 1.5e308}
        path.write_text(json.dumps({"variables": 1, "P": [term], "Q": []}))
    return str(path)


# both documents used to end in an OverflowError traceback and exit 1
@pytest.mark.parametrize("command", ["check", "decide", "synthesize", "verify"])
@pytest.mark.parametrize("name,code", [("mismatch", 1), ("modulus", 2)])
def test_overflowing_document_exits_without_a_traceback(name, code, command, tmp_path):
    path = write_overflow_document(tmp_path, name)
    variables = 2 if name == "mismatch" else 1
    if command == "verify":
        args = [path, write_sequence(tmp_path, "zero.json", variables, [0.0], [])]
    else:
        args = [path, "--steps", "2"]
    run = subprocess.run(
        [sys.executable, "-m", "mqsp.cli", command, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    if code == 2:
        assert run.stderr.startswith("error: ") and "too large for a double" in run.stderr
    elif command in ("decide", "synthesize"):
        assert run.stdout.endswith("  [n=2] reject: a peeled coefficient overflows a double\n")


# a document nested past the parser's recursion limit used to end in a
# RecursionError traceback and exit 1, the code of a negative verdict
@pytest.mark.parametrize("command", ["check", "decide", "synthesize", "verify"])
def test_deeply_nested_document_is_an_input_error(command, identity_path, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    args = [identity_path, str(path)] if command == "verify" else [str(path), "--steps", "2"]
    run = subprocess.run(
        [sys.executable, "-m", "mqsp.cli", command, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr == f"error: {path}: JSON nested too deeply to parse\n"


# a document whose "variables" is a list of 100000 numbers used to print all
# of it, 688957 bytes on one error line
def test_a_huge_bad_value_is_an_input_error_of_one_short_line(tmp_path):
    path = tmp_path / "huge-variables.json"
    path.write_text(json.dumps({"variables": list(range(100000)), "P": [], "Q": []}))
    run = subprocess.run(
        [sys.executable, "-m", "mqsp.cli", "decide", str(path), "--steps", "1"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    message = f"error: {path}: 'variables' must be a positive integer, got [0, 1, 2"
    assert run.stderr.startswith(message)
    assert run.stderr.endswith("...\n") and run.stderr.count("\n") == 1
    assert len(run.stderr) < 200 + len(str(path))


# a variable count past the largest index used to end in an OverflowError
# traceback and exit 1, the code of a negative verdict
@pytest.mark.parametrize("command", ["check", "decide", "synthesize", "verify", "gen"])
def test_a_huge_variable_count_is_an_input_error(command, tmp_path):
    count = 10**30
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"variables": count, "P": [], "Q": []}))
    if command == "verify":
        args = [str(path), write_sequence(tmp_path, "seq.json", count, [0.0], [])]
    elif command == "gen":
        args = ["-m", str(count), "--steps", "0", "--seed", "1", "--pair-out",
                str(tmp_path / "p.json"), "--sequence-out", str(tmp_path / "s.json")]
    else:
        args = [str(path), "--steps", "2"]
    run = subprocess.run(
        [sys.executable, "-m", "mqsp.cli", command, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "at most 1000000" in run.stderr and run.stderr.endswith(f", got {count}\n")
    assert not (tmp_path / "p.json").exists()


# a budget is paid in identity pads, one record each: --steps 10**9 asked for
# tens of gigabytes before it answered, and decide --steps 1000001 printed
# 500001 trace lines; each call runs in a child with a time limit, as gen
# used to evaluate a million-step sequence
@pytest.mark.parametrize("command", ["check", "decide", "synthesize", "gen"])
def test_a_step_budget_past_the_bound_is_an_input_error(command, identity_path, tmp_path):
    if command == "gen":
        args = ["-m", "1", "--seed", "1", "--pair-out", str(tmp_path / "p.json"),
                "--sequence-out", str(tmp_path / "s.json")]
    else:
        args = [identity_path]
    run = subprocess.run(
        [sys.executable, "-m", "mqsp.cli", command, *args, "--steps", "1000001"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == "" and run.stderr == "error: need at most 1000000 steps, got 1000001\n"
    assert not (tmp_path / "p.json").exists()


# -- synthesize --------------------------------------------------------------


def test_synthesize_identity_padding(identity_path, tmp_path):
    out_path = tmp_path / "seq.json"
    assert main(["synthesize", identity_path, "--steps", "2", "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["variables"] == 1
    assert doc["indices"] == [1, 1]
    assert doc["phases"] == pytest.approx([0.0, math.pi / 2, -math.pi / 2])


def test_synthesize_signal_operator_to_stdout(signal_path, capsys):
    assert main(["synthesize", signal_path, "--steps", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["phases"] == [0.0, 0.0]
    assert doc["indices"] == [1]


def test_synthesize_counterexample_writes_nothing(ce_path, tmp_path):
    out_path = tmp_path / "seq.json"
    assert main(["synthesize", ce_path, "--steps", "4", "-o", str(out_path)]) == 1
    assert not out_path.exists()


def test_synthesize_unwritable_output(identity_path, tmp_path, capsys):
    out_path = tmp_path / "missing" / "seq.json"
    assert main(["synthesize", identity_path, "--steps", "2", "-o", str(out_path)]) == 2
    assert "error:" in capsys.readouterr().err


# -- verify ---------------------------------------------------------------------


def test_verify_signal_operator(signal_path, tmp_path, capsys):
    seq = write_sequence(tmp_path, "seq.json", 1, [0.0, 0.0], [1])
    assert main(["verify", signal_path, seq]) == 0
    assert "max coefficient deviation" in capsys.readouterr().out


def test_verify_identity_padding(identity_path, tmp_path):
    seq = write_sequence(tmp_path, "pad.json", 1, [0.0, math.pi / 2, -math.pi / 2], [1, 1])
    assert main(["verify", identity_path, seq]) == 0


def test_verify_mismatch(identity_path, tmp_path):
    seq = write_sequence(tmp_path, "one.json", 1, [0.0, 0.0], [1])
    assert main(["verify", identity_path, seq]) == 1


@pytest.mark.parametrize("phase", ["NaN", "Infinity", "-Infinity"])
def test_verify_non_finite_phase_is_an_input_error(identity_path, tmp_path, capsys, phase):
    # json reads NaN and Infinity; such a sequence document used to end in a
    # traceback and exit 1, which means "mismatch"
    path = tmp_path / "seq.json"
    path.write_text(f'{{"variables": 1, "phases": [{phase}, 0.0, 0.0], "indices": [1, 1]}}')
    assert main(["verify", identity_path, str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not finite" in err


# a JSON integer of 400 digits does not fit in a double; it used to end in an
# OverflowError traceback and exit 1, which means "not constructible" or
# "mismatch"
HUGE = "1" + "0" * 399


@pytest.mark.parametrize("command", ["check", "decide", "verify"])
def test_oversized_coefficient_is_an_input_error(command, identity_path, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        f'{{"variables": 1, "P": [{{"exponents": [0], "re": {HUGE}, "im": 0.0}}], "Q": []}}'
    )
    seq = write_sequence(tmp_path, "zero.json", 1, [0.0], [])
    argv = {"check": ["check", str(path), "--steps", "0"],
            "decide": ["decide", str(path), "--steps", "0"],
            "verify": ["verify", str(path), seq]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large for a double" in err


def test_verify_oversized_phase_is_an_input_error(identity_path, tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(f'{{"variables": 1, "phases": [{HUGE}, 0.0, 0.0], "indices": [1, 1]}}')
    assert main(["verify", identity_path, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "range of a double" in err


def test_verify_arity_mismatch(identity_path, tmp_path, capsys):
    seq = write_sequence(tmp_path, "two.json", 2, [0.0, 0.0], [2])
    assert main(["verify", identity_path, seq]) == 2
    assert "mismatch" in capsys.readouterr().err


# -- gen ---------------------------------------------------------------------------


def test_gen_then_verify(tmp_path):
    pair_out = tmp_path / "pair.json"
    seq_out = tmp_path / "seq.json"
    args = [
        "gen", "-m", "2", "--steps", "4", "--seed", "7",
        "--pair-out", str(pair_out), "--sequence-out", str(seq_out),
    ]
    assert main(args) == 0
    assert main(["verify", str(pair_out), str(seq_out)]) == 0


def test_gen_deterministic_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        args = [
            "gen", "-m", "3", "--steps", "6", "--seed", "11",
            "--angle-mode", "discrete",
            "--pair-out", str(path), "--sequence-out", str(tmp_path / (path.name + ".seq")),
        ]
        assert main(args) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gen_zero_steps(tmp_path):
    pair_out = tmp_path / "pair.json"
    args = [
        "gen", "-m", "1", "--steps", "0", "--seed", "3",
        "--pair-out", str(pair_out), "--sequence-out", str(tmp_path / "seq.json"),
    ]
    assert main(args) == 0
    doc = json.loads(pair_out.read_text())
    assert doc["Q"] == []
    (term,) = doc["P"]
    assert term["exponents"] == [0]
    assert abs(complex(term["re"], term["im"])) == pytest.approx(1.0)


def test_gen_invalid_parameters(tmp_path):
    args = [
        "gen", "-m", "0", "--steps", "1", "--seed", "1",
        "--pair-out", str(tmp_path / "p.json"), "--sequence-out", str(tmp_path / "s.json"),
    ]
    assert main(args) == 2


def test_gen_unwritable_output(tmp_path, capsys):
    args = [
        "gen", "-m", "1", "--steps", "2", "--seed", "3",
        "--pair-out", str(tmp_path / "missing" / "p.json"),
        "--sequence-out", str(tmp_path / "s.json"),
    ]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


# -- check -----------------------------------------------------------------------------


def test_check_counterexample_passes_filters_yet_decide_rejects(ce_path):
    assert main(["check", ce_path, "--steps", "4"]) == 0
    assert main(["decide", ce_path, "--steps", "4"]) == 1


def test_check_flags_broken_symmetry(tmp_path, capsys):
    pair = PQPair(LaurentPoly(1, {(1,): 1.0}), LaurentPoly.zero(1))
    path = tmp_path / "monomial.json"
    save_pair(pair, str(path))
    assert main(["check", str(path), "--steps", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_flags_parity(identity_path):
    assert main(["check", identity_path, "--steps", "1"]) == 1


CHECK_OUTPUTS = [
    ("counterexample-2-2", 4, 0, [
        "necessary conditions (steps=4):",
        "  inversion symmetry of P        ok",
        "  inversion antisymmetry of Q    ok",
        "  per-variable degree equality   ok",
        "  P nonzero                      ok",
        "  degree-sum parity              ok",
        "  unit-norm identity             ok",
        "  degrees: a1=2 a2=2 (sum=4)",
        "result: all filters pass",
    ]),
    ("identity", 1, 1, [
        "necessary conditions (steps=1):",
        "  inversion symmetry of P        ok",
        "  inversion antisymmetry of Q    ok",
        "  per-variable degree equality   ok",
        "  P nonzero                      ok",
        "  degree-sum parity              FAIL",
        "  unit-norm identity             ok",
        "  degrees: a1=0 (sum=0)",
        "result: rejected by a filter",
    ]),
]


@pytest.mark.parametrize("name,steps,code,lines", CHECK_OUTPUTS)
def test_check_prints_the_report_byte_for_byte(name, steps, code, lines, tmp_path, capsys):
    path = tmp_path / "pair.json"
    assert main(["fixture", name, "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", str(path), "--steps", str(steps)]) == code
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


# |P|^2 + |Q|^2 overflows a double: a constant sampled on its box, and a
# pair too sparse for its box, which is multiplied out
OVERFLOWING = [
    pytest.param(PQPair(LaurentPoly(1, {(0,): 1e160}), LaurentPoly.zero(1)), id="sampled"),
    pytest.param(
        PQPair(LaurentPoly(1, {(0,): 1e200, (100000,): 1e190}), LaurentPoly.zero(1)),
        id="multiplied",
    ),
]


@pytest.mark.parametrize("pair", OVERFLOWING)
def test_check_fails_the_identity_on_overflow(pair, tmp_path, capsys):
    path = tmp_path / "huge.json"
    save_pair(pair, str(path))
    assert main(["check", str(path), "--steps", "0"]) == 1
    out = capsys.readouterr().out
    assert "unit-norm identity             FAIL" in out
    assert out.endswith("result: rejected by a filter\n")
    assert main(["decide", str(path), "--steps", "0"]) == 1


# -- fixture -------------------------------------------------------------------------------


def test_fixture_to_stdout(capsys):
    assert main(["fixture", "signal-operator"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variables"] == 1
    assert doc["metadata"]["name"] == "signal-operator"


def test_fixture_unknown_name(capsys):
    assert main(["fixture", "bogus"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_fixture_unwritable_output(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.json"
    assert main(["fixture", "identity", "-o", str(out_path)]) == 2
    assert "error:" in capsys.readouterr().err
