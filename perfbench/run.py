"""mqsp benchmark: one command, three workloads, output checks, optional trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload roundtrip-small --seed 1 --seconds 30 --trace 0

Runs the package from ``src/`` with no install step.  Inputs come from
``--seed`` alone: instance ``k`` of a run uses seed ``seed + k``.  Every
output is checked against how its input was built; a mismatch is counted,
never fatal.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``perfbench/README.md`` defines every metric and workload.  Seed 7919 is
held out: use it only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SHIM = HERE / "cli_shim.py"

TOL = 1e-9
MODES = ("continuous", "discrete")
# Half of the set-up probes run before the timed loop and half after it, so
# that their median spans more than one phase of the machine's speed drift.
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 120.0
SUBCOMMANDS = ("gen", "check", "decide", "synthesize", "verify")
CRASHED = -1000  # exit code recorded for a child that died with a traceback

# Exact-repeat counts: a traced pass over the same instances must reproduce them.
REPEAT_COUNTS = (
    "laurent.mul.term_pairs",
    "su2.evaluate_sequence.terms_out",
    "documents.pair_bytes",
    "engine.levels",
    "engine.find_phase.calls",
)


RATE_MARGIN = 0.03  # added to every reference rate
GATE_P = 1e-6  # a seed-rate decision exceeds the gate with this probability


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed in log space."""
    if k <= 0 or p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(n + 1)
    return min(1.0, sum(
        math.exp(head - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p
                 + (n - i) * log_q)
        for i in range(k, n + 1)))


class Tally:
    """Output checks.  A realizable pair rejected by the decision is the
    known numerical incompleteness the benchmark measures; any other
    mismatch is a wrong answer and makes the run incorrect.  So do more
    false rejections than the seed's rates explain (``excess_rejections``):
    that is a broken decision, not ill-conditioned input, and it would
    otherwise pass as a speed-up."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.realizable = Counter()  # cell -> realizable pairs decided at own n
        self.rejected = Counter()  # cell -> of those, rejected

    def check(self, ok: bool, what: str, known: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += not known
            if not known or len(self.notes) < 20:
                self.notes.append(("known: " if known else "WRONG: ") + what)
        return ok

    @property
    def gate_checks(self) -> int:
        return len(self.realizable) + 1 if self.realizable else 0

    @property
    def false_reject_rate(self) -> float:
        realizable = sum(self.realizable.values())
        return sum(self.rejected.values()) / realizable if realizable else 0.0

    def own_step_verdict(self, cell: str, accepted: bool, what: str) -> None:
        self.realizable[cell] += 1
        self.rejected[cell] += not accepted
        self.check(accepted, f"{what}: realizable pair rejected", known=True)

    def excess_rejections(self, seed_rates: dict[str, float]) -> list[str]:
        """Each cell, and the run as a whole, whose false rejections a
        decision with the seed's rates (plus ``RATE_MARGIN``) would reach
        with probability below ``GATE_P``.  That is ``gate_checks`` checks."""
        found = []
        expected = 0.0
        for cell, total in sorted(self.realizable.items()):
            rate = seed_rates.get(cell, 0.0) + RATE_MARGIN
            expected += rate * total
            if binomial_tail(self.rejected[cell], total, rate) < GATE_P:
                found.append(f"{cell}: {self.rejected[cell]} of {total} realizable pairs "
                             f"rejected, seed rate {seed_rates.get(cell, 0.0)}")
        total, rejected = sum(self.realizable.values()), sum(self.rejected.values())
        if total and binomial_tail(rejected, total, expected / total) < GATE_P:
            found.append(f"{rejected} of {total} realizable pairs rejected, "
                         f"{expected - RATE_MARGIN * total:.1f} expected at the seed rates")
        return found


def cell_key(m: int, n: int) -> str:
    return f"m{m}n{n}"


# -- roundtrip workloads (in process) ------------------------------------------


class Roundtrip:
    """random_sequence -> evaluate_sequence -> decide(n) -> synthesize(n) ->
    rebuild and compare -> decide(n+1) is False -> decide(n+2) is True."""

    def __init__(self, cells, traced_rounds, tail_pct, reject_rates):
        self.cells = cells  # one instance per (m, n, mode) per round
        self.traced_rounds = traced_rounds
        self.tail_pct = tail_pct
        self.reject_rates = reject_rates

    @property
    def round_units(self) -> int:
        return len(self.cells)

    def setup(self, workdir: Path) -> None:
        import mqsp  # noqa: F401

    def units(self, seed_base):
        """One unit per instance, round after round: instance k has seed
        ``seed_base + k`` and the k-th cell, modulo the round length."""
        for k in itertools.count():
            yield functools.partial(self.run_instance, k, seed_base + k,
                                    *self.cells[k % len(self.cells)])

    def run_instance(self, k, seed, m, n, mode, ctx) -> None:
        import mqsp as api

        ctx.tracer.instance = k
        ctx.speed.maybe_probe()
        start = time.perf_counter()
        ctx.tracer.call("instance", self.instance, api, m, n, mode, seed, ctx.tally)
        ctx.record(start, time.perf_counter() - start)

    @staticmethod
    def instance(api, m, n, mode, seed, tally: Tally) -> None:
        what = f"m={m} n={n} {mode} seed={seed}"
        try:
            seq = api.random_sequence(api.OracleConfig(m, n, seed, mode))
            pair = api.evaluate_sequence(seq)
            accepted = api.decide(pair, n, TOL)
            tally.own_step_verdict(cell_key(m, n), accepted, f"decide({n}) {what}")
            result = api.synthesize(pair, n, TOL)
            if result.constructible != accepted:
                tally.check(False, f"synthesize({n}) disagrees with decide {what}")
            elif accepted:
                built = result.sequence
                rebuilt_ok = (
                    built.steps == n
                    and len(built.phases) == n + 1
                    and api.evaluate_sequence(built).max_deviation(pair) <= TOL
                )
                tally.check(rebuilt_ok, f"synthesized parameters do not rebuild {what}")
            tally.check(not api.decide(pair, n + 1, TOL), f"decide({n + 1}) accepted {what}")
            # Padding makes n + 2 follow the same peel as n, so a rejection
            # there is the known defect only if n was rejected too.
            tally.check(api.decide(pair, n + 2, TOL), f"decide({n + 2}) rejected {what}",
                        known=not accepted)
        except Exception as exc:  # a crash is a wrong answer, not the end of the run
            tally.check(False, f"{type(exc).__name__}: {exc} in {what}")


SMALL_CELLS = [(m, n, mode) for m in (1, 2, 3) for n in range(11) for mode in MODES]
# False-rejection rates of the seed commit's decision on oracle pairs, per
# (m, n) cell over 300 seeds drawn as the workloads draw them (150 per angle
# mode; 300 continuous on cli-pipeline).  A cell not listed had none.  The
# gate in Tally.excess_rejections compares a run against them.
SMALL_REJECT_RATES = {"m1n7": 0.007, "m1n8": 0.007, "m1n9": 0.013, "m1n10": 0.010,
                      "m2n8": 0.003}
DEEP_REJECT_RATES = {"m1n40": 0.767, "m2n30": 0.220, "m3n20": 0.013, "m4n16": 0.003}
# Interleaved so that any prefix of a run is a balanced mix.  Sized so that a
# 30 s run at the seed holds about 100 instances: at the (2,40), (3,30),
# (4,24) cells an instance takes 1-2.5 s and the seed-to-seed spread of the
# median was too wide for the bounds (see README.md).
DEEP_CELLS = [
    (1, 40, "continuous"), (4, 16, "discrete"), (2, 30, "continuous"), (3, 20, "discrete"),
    (1, 40, "discrete"), (4, 16, "continuous"), (2, 30, "discrete"), (3, 20, "continuous"),
]


# -- cli-pipeline (one child process per call) ------------------------------------


class CliPipeline:
    """Per oracle pair (gen's default continuous angles): gen -> check ->
    decide -> synthesize -o -> verify, then check and decide on a 1e-3
    perturbation of it; per round also check and decide on the
    counterexample-2-2 witness at steps 4 and 6.  Each call is one sample,
    timed from spawn to exit code.  A run holds too few pairs for the
    false-rejection gate to catch a decision that rejects too often; the
    roundtrip workloads gate the decision, and this one checks that the CLI
    returns the same verdict as ``mqsp.decide`` in process."""

    # At (2,40) the O(L^2) unit-norm filter dominates a call.  With m = 2 the
    # coefficient box is nearly the same size for every seed; m = 3 boxes vary
    # by about 20% in L^2, and a run holds only a few of them.
    cells = ((2, 30), (2, 40))
    witness_steps = (4, 6)
    traced_rounds = 1
    reject_rates = {"m2n30": 0.440, "m2n40": 0.803}

    def __init__(self, tail_pct):
        self.tail_pct = tail_pct

    @property
    def round_units(self) -> int:
        return len(self.cells) + 1

    def setup(self, workdir: Path) -> None:
        from mqsp import documents, fixtures

        workdir.mkdir(parents=True, exist_ok=True)
        documents.save_pair(fixtures.counterexample_pair(), str(workdir / "witness.json"),
                            fixtures.fixture_metadata("counterexample-2-2"))

    def units(self, seed_base):
        """Per round, one unit per oracle cell (seed ``seed_base + k`` for the
        k-th oracle pair), then one unit for the witness."""
        k = 0
        while True:
            for m, n in self.cells:
                yield functools.partial(self.run_pair, seed_base + k, m, n)
                k += 1
            yield self.run_witness

    @staticmethod
    def run_pair(seed, m, n, ctx) -> None:
        from mqsp import OracleConfig, decide, documents, random_sequence

        work, tally = ctx.workdir, ctx.tally
        what = f"m={m} n={n} seed={seed}"
        pair, seq, synth, bumped = (str(work / f"{stem}.json")
                                    for stem in ("pair", "seq", "synth", "bumped"))
        steps = ["--steps", str(n)]
        code = ctx.cli("gen", "-m", str(m), *steps, "--seed", str(seed),
                       "--pair-out", pair, "--sequence-out", seq)
        if not tally.check(code == 0, f"gen exit {code} {what}"):
            return
        drawn = random_sequence(OracleConfig(m, n, seed))
        with open(seq, encoding="utf-8") as handle:
            doc = json.load(handle)
        tally.check(doc["phases"] == list(drawn.phases) and doc["indices"] == list(drawn.indices),
                    f"gen wrote a sequence other than the seed's {what}")
        # The filters are necessary conditions: a realizable pair passes them.
        code = ctx.cli("check", pair, *steps)
        tally.check(code == 0, f"check exit {code} on a realizable pair {what}")
        decided = ctx.cli("decide", pair, *steps)
        if decided in (0, 1):
            in_process = decide(documents.load_pair(pair), n, TOL)
            if tally.check(decided == (0 if in_process else 1),
                           f"decide exit {decided}, mqsp.decide {in_process} {what}"):
                tally.own_step_verdict(cell_key(m, n), decided == 0, f"decide {what}")
        else:
            tally.check(False, f"decide exit {decided} {what}")
        code = ctx.cli("synthesize", pair, *steps, "-o", synth)
        tally.check(code == decided, f"synthesize exit {code}, decide exit {decided} {what}")
        code = ctx.cli("verify", pair, synth if code == 0 else seq)
        tally.check(code == 0, f"verify exit {code} {what}")
        perturb(pair, bumped, seed)
        code = ctx.cli("check", bumped, *steps)
        tally.check(code == 1, f"check exit {code} on a perturbed pair {what}")
        code = ctx.cli("decide", bumped, *steps)
        tally.check(code == 1, f"decide exit {code} on a perturbed pair {what}")

    def run_witness(self, ctx) -> None:
        witness = str(ctx.workdir / "witness.json")
        for n in self.witness_steps:
            code = ctx.cli("check", witness, "--steps", str(n))
            ctx.tally.check(code == 0, f"check exit {code} on the witness at n={n}")
            code = ctx.cli("decide", witness, "--steps", str(n))
            ctx.tally.check(code == 1, f"decide exit {code} on the witness at n={n}")


def perturb(src: str, dst: str, seed: int, magnitude: float = 1e-3) -> None:
    """Copy a pair document with one coefficient of P or Q moved by
    ``magnitude`` in a direction drawn from ``seed``."""
    with open(src, encoding="utf-8") as handle:
        doc = json.load(handle)
    rng = random.Random(seed)
    terms = [t for key in ("P", "Q") for t in doc[key]]
    term = terms[rng.randrange(len(terms))]
    angle = rng.uniform(0.0, 2.0 * math.pi)
    term["re"] += magnitude * math.cos(angle)
    term["im"] += magnitude * math.sin(angle)
    with open(dst, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


WORKLOADS = {
    "roundtrip-small": Roundtrip(SMALL_CELLS, traced_rounds=8, tail_pct=99,
                                 reject_rates=SMALL_REJECT_RATES),
    "roundtrip-deep": Roundtrip(DEEP_CELLS, traced_rounds=2, tail_pct=85,
                                reject_rates=DEEP_REJECT_RATES),
    "cli-pipeline": CliPipeline(tail_pct=85),
}


# -- one pass ------------------------------------------------------------------------------


class Pass:
    """One pass over a workload: its checks, its samples and its tracer.
    Untraced, the tracer only records the benchmark's own instance and
    call spans."""

    def __init__(self, workdir: Path, traced: bool):
        import speed
        import tracer

        self.workdir = workdir
        self.traced = traced
        self.tracer = tracer.Tracer()
        self.speed = speed.SpeedLog()
        self.tally = Tally()
        self.samples: list[float] = []
        self.starts: list[float] = []
        self.cli_samples: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
        self.cli_import: list[float] = []
        self.cli_main: list[float] = []
        self.cli_overhead: list[float] = []
        self.child_rss_kib: list[int] = []  # peak RSS of each mqsp child

    def cli(self, sub: str, *args: str) -> int:
        """Run one ``mqsp`` call in a child process; returns its exit code."""
        self.speed.maybe_probe()
        code, start, wall = self.tracer.call(f"cli.{sub}", self._spawn, sub, args)
        self.record(start, wall)
        self.cli_samples[sub].append(wall)
        return code

    def record(self, start: float, seconds: float) -> None:
        self.starts.append(start)
        self.samples.append(seconds)

    def at_reference_speed(self) -> list[float]:
        return [s * self.speed.scale(t + s / 2) for t, s in zip(self.starts, self.samples)]

    def _spawn(self, sub, args) -> tuple[int, float, float]:
        trace_file = self.workdir / "child-trace.json"
        if self.traced:
            argv = [sys.executable, str(SHIM), str(trace_file), sub, *args]
        else:
            argv = [sys.executable, "-m", "mqsp.cli", sub, *args]
        with open(self.workdir / "child-stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                                    stdout=subprocess.DEVNULL, stderr=err)
            # Popen.wait(timeout=...) polls in steps of up to 50 ms, which
            # would quantize every sample; block in wait() and kill from a timer.
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # wait4 reports this child's own peak RSS, apart from any
                # other child of the benchmark.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            code = proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kib.append(usage.ru_maxrss)
            err.seek(0)
            stderr = err.read()
        if b"Traceback (most recent call last)" in stderr:
            code = CRASHED  # an uncaught exception also exits 1: not a verdict
        if code not in (0, 1):
            self.tally.notes.append(f"mqsp {sub} exit {code}: {stderr[-400:]!r}")
        elif self.traced:
            with open(trace_file, encoding="utf-8") as handle:
                data = json.load(handle)
            trace_file.unlink()
            self.tracer.merge(data)
            main_s = data["busy"].get("cli.main", 0.0)
            self.cli_import.append(data["import_s"])
            self.cli_main.append(main_s)
            self.cli_overhead.append(wall - main_s)
        return code, start, wall


def run_pass(workload, seed, workdir, traced, seconds=None) -> tuple[Pass, float]:
    """Run the workload's units in order: its traced rounds, then, given
    ``seconds``, more units until that much time has passed."""
    ctx = Pass(workdir, traced)
    if traced and not isinstance(workload, CliPipeline):
        ctx.tracer.install()
    minimum = workload.traced_rounds * workload.round_units
    start = time.perf_counter()
    try:
        for done, unit in enumerate(workload.units(seed)):
            if done >= minimum and (seconds is None or time.perf_counter() - start >= seconds):
                break
            unit(ctx)
    finally:
        ctx.tracer.uninstall()
    return ctx, time.perf_counter() - start


# -- metrics -----------------------------------------------------------------------------


def percentile(values, pct):
    """Inclusive-method percentile, ``pct`` in 1..99."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb(loop: Pass) -> float:
    """The largest mqsp child's peak RSS on cli-pipeline, else this process's."""
    if loop.child_rss_kib:
        return max(loop.child_rss_kib) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload_name: str, repeats: int) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters (the package import plus what the
    workload prepares before its loop), each with the reference-kernel time
    the same interpreter measured right after."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                               "--workload", workload_name], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        setup_s, reference_s = proc.stdout.split()[-2:]
        times.append((float(setup_s), float(reference_s)))
    return times


def end_to_end(workload, loop: Pass, elapsed: float, setup_times) -> dict:
    """Timings at reference speed (see speed.py); the raw ones are printed."""
    import speed

    samples = loop.at_reference_speed()
    tail = percentile(samples, workload.tail_pct)
    beyond = sum(s > tail for s in samples)
    setup_s = statistics.median(t * speed.NOMINAL_S / ref for t, ref in setup_times)
    raw = loop.samples
    print(f"# {len(samples)} samples in {elapsed:.2f} s; tail = p{workload.tail_pct} "
          f"with {beyond} samples beyond it; {len(loop.speed.probes)} speed probes, "
          f"median reference {statistics.median(s for _, s in loop.speed.probes) * 1e3:.2f} ms")
    print(f"# raw: {len(raw) / sum(raw):.4g} instances/s, p50 {median(raw) * 1e3:.4g} ms, "
          f"tail {percentile(raw, workload.tail_pct) * 1e3:.4g} ms, "
          f"setup {statistics.median(t for t, _ in setup_times):.4g} s")
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (len(samples) / sum(samples), "1/s"),
        "instance_p50_ms": (median(samples) * 1e3, "ms"),
        "instance_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(loop), "MiB"),
    }


def per_layer(loop: Pass, untraced: Pass, second: Pass) -> dict:
    tally = loop.tally
    traced_s = sum(second.samples)
    untraced_s = sum(untraced.samples)
    out = {
        "false_reject_rate": (tally.false_reject_rate, "ratio"),
        "failure_rate": (tally.failed / tally.attempted if tally.attempted else 0.0, "ratio"),
        "tracing_overhead": (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio"),
        "instance.busy_s": (traced_s, "s"),
    }
    for m, n, _ in DEEP_CELLS:
        key = cell_key(m, n)
        rate = tally.rejected[key] / tally.realizable[key] if tally.realizable[key] else 0.0
        out[f"engine.false_reject.{key}"] = (rate, "ratio")
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}_p50_ms"] = (median(loop.cli_samples[sub]) * 1e3, "ms")
    out["cli.check_decide.wall_s"] = (
        sum(second.cli_samples["check"]) + sum(second.cli_samples["decide"]), "s")
    out["cli.import_s"] = (median(second.cli_import), "s")
    out["cli.main_s"] = (median(second.cli_main), "s")
    out["cli.process_overhead_s"] = (median(second.cli_overhead), "s")
    out.update(second.tracer.layer_metrics())
    return out


def repeat_mismatches(first: Pass, second: Pass) -> list[str]:
    a, b = first.tracer.layer_metrics(), second.tracer.layer_metrics()
    return [f"{key}: {a[key][0]} then {b[key][0]}"
            for key in REPEAT_COUNTS if key in a and a[key][0] != b.get(key, (None,))[0]]


def shares(second: Pass) -> str:
    busy = second.tracer.busy
    traced = sum(second.samples)
    kernel = busy["su2.evaluate_sequence"] + busy["engine.run_decision"]
    check_decide = busy["cli.check"] + busy["cli.decide"]
    line = f"# evaluate_sequence + run_decision busy = {kernel / traced:.3f} of instance time"
    if check_decide:
        line += (f"; check_necessary busy = "
                 f"{busy['engine.check_necessary'] / check_decide:.3f} of check + decide calls")
    return line


# -- entry point -----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up in this process and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mqsp" / "__init__.py").is_file():
        print(f"error: no mqsp package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            import speed

            start = time.perf_counter()
            workload.setup(workdir)
            print(time.perf_counter() - start, speed.time_reference())
            return 0
        setup_times = [] if args.trace else measure_setup(args.workload, SETUP_REPEATS // 2)
        workload.setup(workdir)
        loop, elapsed = run_pass(workload, args.seed, workdir, traced=False,
                                 seconds=args.seconds)
        if not args.trace:
            setup_times += measure_setup(args.workload, SETUP_REPEATS - len(setup_times))
        tally = loop.tally
        attempted, wrong, notes = tally.attempted, tally.wrong, list(tally.notes)
        excess = tally.excess_rejections(workload.reject_rates)
        attempted += tally.gate_checks
        wrong += len(excess)
        notes += [f"WRONG: more false rejections than the seed's rates explain: {line}"
                  for line in excess]
        if args.trace:
            untraced, _ = run_pass(workload, args.seed, workdir, traced=False)
            first, _ = run_pass(workload, args.seed, workdir, traced=True)
            second, _ = run_pass(workload, args.seed, workdir, traced=True)
            for extra in (untraced, first, second):
                attempted += extra.tally.attempted
                wrong += extra.tally.wrong
                notes += extra.tally.notes
            mismatches = repeat_mismatches(first, second)
            for line in mismatches:
                print(f"# exact-repeat count differs between traced passes: {line}")
            attempted += len(REPEAT_COUNTS)
            wrong += len(mismatches)
            metrics = per_layer(loop, untraced, second)
            second.tracer.write_spans(
                str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
            print(shares(second))
        else:
            metrics = end_to_end(workload, loop, elapsed, setup_times)
        for note in notes:
            print(f"# {note}")
        # ``failed`` counts wrong answers only.  The seed's known false
        # rejections are a measured property of the decision, reported in
        # false_reject_rate and failure_rate (traced run) and on this line.
        print(f"# checks: {attempted} attempted, {wrong} wrong answers; "
              f"{tally.failed - tally.wrong} known false rejections in "
              f"{tally.attempted} checks of the timed loop "
              f"(false_reject_rate {tally.false_reject_rate:.4g})")
        print(json.dumps({
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": wrong,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
