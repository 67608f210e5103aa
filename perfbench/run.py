"""Benchmark of gamepowers: run one workload, check every answer, print metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload logic|laws|cli \\
        --seed N --seconds S --trace 0|1

The workload's inputs come from the seed alone.  The run repeats whole
rounds of the workload's operations, one at a time in this process (the cli
workload starts one command-line process at a time), until S seconds have
passed.  Every answer of the first round is checked against the oracles in
oracles.py or against properties the method must have; later rounds must
reproduce the first round's output byte for byte, and the first seeded
operation of each kind is run once more at the end for the same comparison.

With --trace 0 the last line carries the end-to-end metrics, their times
divided by the machine's slowdown that reference_work measures around each
operation (the wall-clock figures are on the record line); with --trace 1
the run alternates plain and traced rounds and the last line carries the
per-layer metrics (see tracing.py).  Lines before the last one describe the
run.  The exit code is 2, with no result line, when the checkout holds no
gamepowers sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("logic", "laws", "cli")
# set-up probes before each measured round, so that they sample the
# machine's state across the whole run like the operations do
SETUP_PROBES_PER_ROUND = 2
# enough that the 90th percentile has ten samples beyond it
MIN_LATENCY_SAMPLES = 100
# about reference_work's time on an unloaded core of the 2-vCPU machine the
# benchmark was written on; times are reported at that speed
REFERENCE_S = 1.0e-3
# an operation's time is divided by the median slowdown of the references
# timed this many operations before and after it, and its own
NEAR = 2


def load_program():
    """Import gamepowers from this checkout's src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "gamepowers", "__init__.py")):
        raise ImportError(f"no gamepowers sources under {SRC}")
    sys.path.insert(0, SRC)
    import gamepowers

    where = os.path.realpath(os.path.dirname(gamepowers.__file__))
    if os.path.dirname(where) != os.path.realpath(SRC):
        raise ImportError(f"gamepowers imported from {where}, not from {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git clone."""
    # the ceiling keeps git from reporting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Tally:
    """Per-operation outcomes: first-round outputs, failures, problems."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list = [None] * len(ops)
        self.first_ok: list = [True] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.faults: dict[str, int] = {}

    def record(self, i: int, result, error: str | None) -> None:
        op = self.ops[i]
        self.attempted += 1
        problems = []
        if error is not None:
            problems.append(error)
            text = digest("error: " + error)
        else:
            text = digest(op.render(result))
        if self.first[i] is None:
            if error is None:
                try:
                    problems.extend(op.check(result))
                except Exception as exc:  # an answer too malformed to check
                    problems.append(f"check raised {exc!r}")
            self.first[i] = text
            self.first_ok[i] = not problems
        elif text != self.first[i]:
            problems.append(f"{op.kind}: output differs from the first round")
        ok = self.first_ok[i] and not problems
        if ok:
            return
        self.failed += 1
        if (op.known_fault and error is None and op.fault_shows(result)
                and text == self.first[i]):
            self.faults[op.known_fault] = self.faults.get(op.known_fault, 0) + 1
        else:
            self.problems.extend(f"{op.kind}: {p}" for p in problems or ["failed"])

    @property
    def correct(self) -> bool:
        return not self.problems


def digest(text: str) -> str:
    # outputs are compared by hash, so that keeping them costs no memory
    # that would show in peak_rss_mib
    return hashlib.sha256(text.encode()).hexdigest()


def reference_work() -> int:
    """A fixed piece of plain Python work of the kind the program does
    (building, hashing and sorting small frozensets, dicts and tuples) that
    runs no gamepowers code; its time tracks the machine's current speed."""
    letters = "abcdefgh"
    seen: dict = {}
    for i in range(600):
        key = frozenset(letters[j] for j in range(8) if i * 37 >> j & 1)
        seen[key] = seen.get(key, ()) + (i,)
    members = sorted(seen, key=sorted)
    return sum(len(seen[m]) for m in members if len(m) % 2)


def run_round(ops, tally: Tally, keep: bool = False,
              refs: list | None = None) -> tuple[list[float], list]:
    """Run every operation once; returns their durations, and their results
    when asked to keep them.  With `refs`, times reference_work before each
    operation and appends the times there."""
    durations, results = [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if refs is not None:
            # untimed first pass, so that the timed one does not pay for
            # the caches the previous operation left cold
            reference_work()
            t0 = clock()
            reference_work()
            refs.append(clock() - t0)
        error = result = None
        t0 = clock()
        try:
            result = op.run()
        except Exception:  # the program failed; record it and go on
            error = traceback.format_exc()
        durations.append(clock() - t0)
        tally.record(i, result, error)
        if keep:
            results.append(result)
    return durations, results


def replay(ops, tally: Tally) -> None:
    """Same seed, same output: rerun the first seeded operation of each kind."""
    seen = set()
    for i, op in enumerate(ops):
        if not op.seeded or op.kind in seen:
            continue
        seen.add(op.kind)
        if digest(op.render(op.run())) != tally.first[i]:
            tally.problems.append(f"{op.kind}: replay with the same seed differs")


def setup_probe(args) -> float:
    """Launch-to-first-operation time of a fresh interpreter."""
    import workloads

    if args.workload == "cli":
        return workloads.cli_import_probe(ROOT)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def past_deadline(start: float, began: float, seconds: float) -> bool:
    """Whether another step as long as the one begun at `began` would end
    more than `seconds` after `start`; runs stop early rather than late."""
    now = time.perf_counter()
    return now + (now - began) - start > seconds


def timings(per_op: list[list[float]], setup: list[float], completed: float) -> dict:
    """The timed end-to-end metrics from per-operation durations by round,
    set-up probe times and operations completed per round."""
    durations = [dt for times in per_op for dt in times]
    # each operation's median over the rounds resists the machine's slow spells
    typical_round = sum(statistics.median(times) for times in per_op)
    return {
        "ops_per_s": (completed / typical_round, "op/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(durations, n=10)[-1] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def measure(ops, args, tally: Tally) -> dict:
    """End-to-end metrics over whole rounds lasting args.seconds."""
    per_op: list[list[float]] = [[] for _ in ops]
    near_slowdown: list[list[float]] = [[] for _ in ops]
    setup: list[list[float]] = []   # the probes before each round
    slowdown: list[float] = []      # each round's median reference time over REFERENCE_S
    peak_child_kib = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.append([setup_probe(args) for _ in range(SETUP_PROBES_PER_ROUND)])
        refs: list[float] = []
        d, results = run_round(ops, tally, keep=args.workload == "cli", refs=refs)
        slowdown.append(statistics.median(refs) / REFERENCE_S)
        for i, dt in enumerate(d):
            per_op[i].append(dt)
            near = refs[max(0, i - NEAR):i + NEAR + 1]
            near_slowdown[i].append(statistics.median(near) / REFERENCE_S)
        peak_child_kib = max(
            [peak_child_kib] + [r.maxrss_kib for r in results if r is not None])
        if (len(slowdown) * len(ops) >= MIN_LATENCY_SAMPLES
                and past_deadline(start, began, args.seconds)):
            break
    if args.workload == "cli":
        peak_kib = peak_child_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rounds = len(slowdown)
    completed = (tally.attempted - tally.failed) / rounds
    wall = timings(per_op, [p for probes in setup for p in probes], completed)
    # the machine's speed changes up to twofold within seconds and drifts
    # over minutes, and reference_work slows with it: divided by the
    # slowdown measured around it, each time is that of the reference speed
    metrics = timings(
        [[dt / k for dt, k in zip(times, ks)] for times, ks in zip(per_op, near_slowdown)],
        [p / k for probes, k in zip(setup, slowdown) for p in probes],
        completed)
    metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    return {
        "rounds": rounds,
        "latency_samples": rounds * len(ops),
        "setup_probes": [p for probes in setup for p in probes],
        "slowdown": slowdown,
        "wall": {k: v for k, (v, _) in wall.items()},
        "metrics": metrics,
    }


def trace_rounds(ops, args, tally: Tally, ctx) -> dict:
    """Per-layer metrics from traced rounds, each after a plain round."""
    import tracing

    tracer = tracing.Tracer()
    cli = args.workload == "cli"
    overhead, traced_busy, summaries, main_overhead_ms = [], [], [], []
    stdout_bytes = 0
    start = time.perf_counter()
    run_round(ops, tally)  # checks the answers and warms up; not compared
    rounds = 1
    while True:
        began = time.perf_counter()
        plain, _ = run_round(ops, tally)
        if cli:
            ctx.launcher.trace = True
        else:
            tracer.reset()
            tracer.install()
        try:
            traced, results = run_round(ops, tally, keep=cli)
        finally:
            ctx.launcher.trace = False
            tracer.uninstall()
        if cli:
            done = [(dt, r) for dt, r in zip(traced, results) if r is not None]
            summaries.append(tracing.merge([r.trace for _, r in done]))
            stdout_bytes = sum(len(r.stdout.encode()) for _, r in done)
            main_overhead_ms.extend(
                (dt - r.trace["total_s"]["cli.main"]) * 1e3 for dt, r in done)
        else:
            summaries.append(tracer.summary())
        overhead.append(sum(traced) - sum(plain))
        traced_busy.append(sum(traced))
        rounds += 2
        if past_deadline(start, began, args.seconds):
            break

    first = summaries[0]
    metrics = {}
    for layer, name in tracing.REPORTED:
        key = tracing.span_name(layer, name)
        metrics[f"{key}.calls"] = (first["calls"][key], "count")
        metrics[f"{key}.self_s"] = (
            statistics.median(s["self_s"][key] for s in summaries), "s")
    for key in tracing.COUNTERS:
        metrics[key] = (first["counters"][key], "count")
    draws = first["calls"]["powers.random_family_pair"]
    metrics["powers.random_family_pair.tries_per_draw"] = (
        first["tries_in_draws"] / draws if draws else 0.0, "tries/draw")
    metrics["cli.process_overhead_ms"] = (
        statistics.median(main_overhead_ms) if main_overhead_ms else 0.0, "ms")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "count")
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return {
        "rounds": rounds,
        "draws": draws,
        "tries": first["tries_in_draws"],
        "op_time_s": statistics.median(traced_busy),
        "nested_s": {k: statistics.median(s["nested_s"][k] for s in summaries)
                     for k in first["nested_s"]},
        "self_shares": sorted(
            ((statistics.median(s["self_s"][k] for s in summaries), k)
             for k in first["self_s"]), reverse=True)[:8],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build_dir)
    try:
        ctx = workloads.Context(workdir, workloads.Launcher(ROOT, workdir))
        if args.setup_probe:
            workloads.BUILDERS[args.workload](args.seed, ctx)
            print(repr(time.monotonic()))
            return 0
        ops = workloads.BUILDERS[args.workload](args.seed, ctx)
        tally = Tally(ops)
        if args.trace:
            out = trace_rounds(ops, args, tally, ctx)
        else:
            out = measure(ops, args, tally)
        replay(ops, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "trace": args.trace,
        "rounds": out["rounds"],
        "ops_per_round": len(ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    if args.trace:
        record["random_family_pair"] = {"draws": out["draws"], "check_conditions_tries": out["tries"]}
    else:
        record["latency_samples"] = out["latency_samples"]
        record["setup_probes"] = [round(s, 6) for s in out["setup_probes"]]
        record["slowdown"] = [round(k, 4) for k in out["slowdown"]]
        record["wall"] = out["wall"]
    print("record " + json.dumps(record, sort_keys=True))
    for fault, count in sorted(tally.faults.items()):
        print(f"known fault x{count}: {fault}")
    for problem in tally.problems[:20]:
        print(f"WRONG: {problem}")
    if args.trace:
        total = out["op_time_s"]
        for key, secs in out["nested_s"].items():
            print(f"span share {key}: {secs / total:.1%} of a traced round's {total:.3f} s")
        for secs, key in out["self_shares"]:
            print(f"self time {key}: {secs:.4f} s ({secs / total:.1%})")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
