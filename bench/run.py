#!/usr/bin/env python3
"""The cacti benchmark: one closed loop of CLI commands, timed and checked.

    python3 bench/run.py --workload formula-route --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --compare bench/results/A.json bench/results/B.json

A run builds one round of operations from the seed and repeats whole rounds
in this process, one operation at a time, until `--seconds` have passed.
Each operation is `cacti.cli.main(argv)` with stdout captured and the
oracle's generation memo emptied first, as in a fresh CLI process.  Outputs
are checked between operations, outside the timed intervals.  A fixed
calibration task is timed between operations, and every reported time is
scaled to the reference machine's speed by it (see `Speedometer`); the
unscaled figures are printed and kept in the result file as well.

With `--trace 0` the last line of stdout holds the end-to-end metrics; with
`--trace 1` rounds alternate between untraced and traced, and it holds the
per-layer metrics of the traced rounds, per round, with the tracing
overhead.  The same object is written to bench/results/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from workloads import WORKLOADS, build

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
SETUP_REPEATS = 11
# Speed calibration: a sample of `calibration_task` follows every CAL_EVERY_S
# of operation time; an operation's time is scaled by CAL_REF_MS over the
# median sample within CAL_WINDOW_S around it.  CAL_REF_MS is the task's
# median time on the reference machine (bench/README.md).
CAL_EVERY_S = 0.05
CAL_WINDOW_S = 5.0
CAL_REF_MS = 2.0


def measure_setup(speed: Speedometer) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing cacti and cacti.cli,
    as measured and at the reference speed of the calibration samples taken
    in between."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    times = []
    first = len(speed.samples)
    for _ in range(SETUP_REPEATS):
        for _ in range(5):
            speed.sample()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import cacti, cacti.cli"],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"importing cacti failed:\n{proc.stderr}")
    raw = statistics.median(times)
    return raw, raw * CAL_REF_MS / 1000 / statistics.median(speed.samples[first:])


def import_program() -> dict:
    """The cacti modules from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "cacti", "__init__.py")):
        raise RuntimeError(f"no cacti package under {SRC}")
    sys.path.insert(0, SRC)
    import cacti
    from cacti import arith, cli, formulas, oracle, series, stats
    if os.path.dirname(os.path.dirname(os.path.abspath(cacti.__file__))) != SRC:
        raise RuntimeError(f"imported cacti from {cacti.__file__}, not {SRC}")
    return {"cacti": cacti, "cli": cli, "stats": stats, "arith": arith,
            "formulas": formulas, "series": series, "oracle": oracle}


def run_op(modules: dict, argv: list[str]) -> tuple[int, str, str, float]:
    """One operation, as the cacti console script would run it."""
    modules["oracle"]._planted_cache.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = modules["cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        elapsed = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def calibration_task() -> int:
    """Fixed pure-Python work that uses nothing of cacti: tuple keys, dict
    updates, 128-bit integer arithmetic, string building and a sort."""
    table: dict[tuple[int, int], int] = {}
    acc = 1
    for i in range(1, 1000):
        key = (i * 7919 % 211, i % 7)
        table[key] = table.get(key, 0) + i
        acc = (acc * (i + 3) + key[0]) % (1 << 127)
    text = ",".join(f"{a}:{b}={v}" for (a, b), v in sorted(table.items()))
    return len(text) + acc % 1009


class Speedometer:
    """The machine's current speed, sampled between operations.

    The host's speed drifts by 10-30% over tens of seconds, which moves
    every timing of a run together.  Timing the same fixed task between
    operations, and scaling each operation by the task's nearby time,
    reports operation times at the reference machine's speed.
    """

    def __init__(self):
        self.times: list[float] = []    # end of each sample, perf_counter
        self.samples: list[float] = []  # its duration, seconds
        self.owed = 0.0
        for _ in range(20):
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        calibration_task()
        t1 = perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def after(self, elapsed: float) -> None:
        """Take one sample per CAL_EVERY_S of operation time."""
        self.owed += elapsed
        while self.owed >= CAL_EVERY_S:
            self.owed -= CAL_EVERY_S
            self.sample()

    def factor(self, t: float) -> float:
        """Reference over current speed, from the samples near time t."""
        lo = bisect.bisect_left(self.times, t - CAL_WINDOW_S / 2)
        hi = bisect.bisect_right(self.times, t + CAL_WINDOW_S / 2)
        near = self.samples[lo:hi] or self.samples
        return CAL_REF_MS / 1000 / statistics.median(near)


def run_round(modules, ops, tracer=None, speed=None):
    """One round; each operation's latency and end time."""
    results, latencies, ends = [], [], []
    if tracer:
        tracer.install()
    try:
        for op in ops:
            code, out, err, elapsed = run_op(modules, op.argv)
            ends.append(perf_counter())
            if tracer:
                tracer.note_max("oracle.planted_cache.size", sum(
                    map(len, modules["oracle"]._planted_cache.values())))
            if speed:
                speed.after(elapsed)
            results.append((code, out, err))
            latencies.append(elapsed)
    finally:
        if tracer:
            tracer.uninstall()
    return results, latencies, ends


def run(args) -> dict:
    modules = import_program()
    speed = None if args.trace else Speedometer()
    setup_raw, setup_s = measure_setup(speed) if speed else (None, None)
    from checks import Checker
    ops = build(args.workload, args.seed)
    checker = Checker(ops)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(modules)

    attempted = failed = 0
    problems: dict[int, str] = {}
    rounds: list[tuple[bool, list[float], list[float]]] = []
    start = perf_counter()
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        results, latencies, ends = run_round(
            modules, ops, tracer if traced else None, speed)
        attempted += len(ops)
        failed += sum(1 for code, _, _ in results if code != 0)
        for i, problem in checker.check(results).items():
            if results[i][0] == 0:
                problems.setdefault(i, f"{ops[i]}: {problem}")
        rounds.append((traced, latencies, ends))
        elapsed = perf_counter() - start
        # Stop at the round boundary nearest to the deadline.
        if elapsed + elapsed / len(rounds) / 2 >= args.seconds and (
                not tracer or any(t for t, _, _ in rounds)):
            break

    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    extra: dict = {}
    if tracer:
        traced_s = [sum(lat) for t, lat, _ in rounds if t]
        plain_s = [sum(lat) for t, lat, _ in rounds if not t]
        metrics = tracer.metrics(len(traced_s))
        overhead = 100.0 * (statistics.mean(traced_s) / statistics.mean(plain_s) - 1)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        scaled = [[x * speed.factor(t - x / 2) for x, t in zip(lat, ends)]
                  for _, lat, ends in rounds]
        metrics = timing_metrics(scaled)
        metrics["peak_rss_mb"] = {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        unscaled = timing_metrics([lat for _, lat, _ in rounds])
        unscaled["setup_s"] = {"value": setup_raw, "unit": "s"}
        extra = {"unscaled": unscaled,
                 "calibration_ms": [round(1000 * x, 4) for x in speed.samples],
                 "scaled_latencies_ms": [[round(1000 * x, 4) for x in lat]
                                         for lat in scaled]}
    result["metrics"] = metrics
    for problem in problems.values():
        print("CHECK FAILED:", problem, file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": len(rounds), "ops_per_round": len(ops), **result,
              "latencies_ms": [[round(1000 * x, 4) for x in lat]
                               for _, lat, _ in rounds], **extra}
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(report, fh)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations, {attempted} attempted, {failed} failed, "
          f"{'correct' if not problems else 'INCORRECT'}")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:14.4f} {metric['unit']}")
    for key, metric in extra.get("unscaled", {}).items():
        print(f"  {key + ' (unscaled)':34s} {metric['value']:14.4f} {metric['unit']}")
    if speed:
        print(f"  calibration task median {1000 * statistics.median(speed.samples):.4f} ms"
              f" (reference {CAL_REF_MS} ms)")
    return result


def timing_metrics(rounds: list[list[float]]) -> dict:
    """Throughput and latency quantiles of rounds of operation times."""
    pooled = [x for lat in rounds for x in lat]
    return {
        "ops_per_s": {"value": statistics.median(
            len(lat) / sum(lat) for lat in rounds), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(pooled), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * statistics.quantiles(
            pooled, n=10, method="inclusive")[8], "unit": "ms"},
    }


def mutate_int(text: str, which: int) -> str:
    """The text with its which-th integer token increased by one."""
    match = list(re.finditer(r"\d+", text))[which]
    return text[:match.start()] + str(int(match[0]) + 1) + text[match.end():]


def self_test() -> int:
    """Each checker accepts real outputs and rejects an integer changed by
    one and a wrong exit code."""
    modules = import_program()
    from checks import Checker
    status = 0
    for workload in WORKLOADS:
        ops = build(workload, 1)
        checker = Checker(ops)
        results, _, _ = run_round(modules, ops)
        problems = checker.check(results)
        missed = []
        for i, (code, out, err) in enumerate(results):
            tokens = len(re.findall(r"\d+", out))
            variants = [(1, out)] + [(code, mutate_int(out, k))
                                     for k in sorted({0, tokens // 2, tokens - 1})
                                     if tokens]
            for variant in variants:
                changed = results[:i] + [(*variant, err)] + results[i + 1:]
                if i not in checker.check(changed):
                    missed.append((str(ops[i]), variant[0]))
        ok = not problems and not missed
        status |= not ok
        print(f"{workload}: {len(ops)} operations, real outputs "
              f"{'accepted' if not problems else 'REJECTED'}, "
              f"{len(missed)} changed outputs accepted"
              + "".join(f"\n  missed: {op} (exit {c})" for op, c in missed[:5])
              + "".join(f"\n  rejected: {ops[i]}: {p}"
                        for i, p in list(problems.items())[:5]))
    print("self-test passed" if not status else "self-test FAILED")
    return status


def compare(path_a: str, path_b: str) -> int:
    """Each metric of two result files: both values and their ratio B/A."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa)["metrics"], json.load(fb)["metrics"]
    print(f"{'metric':34s} {'unit':6s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = (m.get(key, {}).get("value") for m in (a, b))
        unit = (a.get(key) or b.get(key))["unit"]
        ratio = f"{vb / va:8.3f}" if va and vb is not None else "-"
        print(f"{key:34s} {unit:6s} "
              + " ".join("-".rjust(14) if v is None else f"{v:14.6g}" for v in (va, vb))
              + f" {ratio:>8s}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        result = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
