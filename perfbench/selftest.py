"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the root.

Runs every workload at tiny sizes, with and without tracing, and checks that
each metric named in ``BENCHMARK.json`` is printed with its unit.  Then
injects wrong verdicts into runs and checks that they are counted as
failures, checks that the false-rejection gate trips on a decision that
rejects too often but not on the seed's rates, and checks that a directory holding only the benchmark makes the
harness exit non-zero without a result.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "roundtrip-small": [(1, 2, "continuous"), (2, 3, "discrete")],
    "roundtrip-deep": [(1, 6, "continuous"), (3, 4, "discrete")],
    "cli-pipeline": ((1, 4), (2, 4)),
}


def shrink() -> None:
    for name, cells in TINY.items():
        workload = run.WORKLOADS[name]
        workload.cells = cells
        workload.traced_rounds = 1


def result_of(*argv: str) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def check_metric_names(spec: dict) -> None:
    for name in TINY:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = result_of("--workload", name, "--seed", "3", "--seconds", "0.1",
                               "--trace", trace)
            assert result["correct"] is True, (name, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (name, trace, set(printed) ^ set(expected))
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (key, metric)
            print(f"ok: {name} --trace {trace} prints its {len(printed)} metrics")


def check_wrong_verdict_counted() -> None:
    import mqsp

    honest = mqsp.decide
    mqsp.decide = lambda pair, n, tol=1e-9: True  # accepts n + 1: a wrong verdict
    try:
        result = result_of("--workload", "roundtrip-small", "--seconds", "0.1")
    finally:
        mqsp.decide = honest
    assert result["correct"] is False and result["failed"] >= 1, result
    print(f"ok: injected wrong verdicts counted ({result['failed']} failed)")

    mqsp.decide = lambda pair, n, tol=1e-9: not honest(pair, n, tol)  # the CLI now disagrees
    try:
        result = result_of("--workload", "cli-pipeline", "--seconds", "0.1")
    finally:
        mqsp.decide = honest
    assert result["correct"] is False and result["failed"] >= 1, result
    print(f"ok: CLI verdicts that differ from mqsp.decide counted ({result['failed']} failed)")


def check_false_rejections_gated() -> None:
    def tally_of(rates: dict[str, float], pairs: int = 25) -> run.Tally:
        tally = run.Tally()
        for cell, rate in rates.items():
            for i in range(pairs):
                tally.own_step_verdict(cell, i >= round(rate * pairs), cell)
        return tally

    seed_like = {"m1n40": 0.767, "m2n30": 0.22, "m3n20": 0.0, "m4n16": 0.0}
    assert not tally_of(seed_like).excess_rejections(run.DEEP_REJECT_RATES)
    broken = dict(seed_like, m1n40=1.0, m2n30=1.0)  # rejects every (1,40) and (2,30) pair
    assert tally_of(broken).excess_rejections(run.DEEP_REJECT_RATES)
    assert tally_of({"m3n20": 0.4}).excess_rejections(run.DEEP_REJECT_RATES)
    print("ok: false-rejection gate trips on excess rejections only")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "roundtrip-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok: no result and a non-zero exit without the program")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    shrink()
    check_metric_names(spec)
    check_wrong_verdict_counted()
    check_false_rejections_gated()
    check_refuses_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
