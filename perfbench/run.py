"""Run one benchmark workload against the crtdhss sources of this checkout.

    python3 perfbench/run.py --workload wide_session --seed 1 --seconds 20 --trace 0

One closed-loop client in one process calls the package in-process: the
next operation starts only after the previous one returned. With --trace 0
the run measures the end-to-end metrics with no tracing wrapper installed;
with --trace 1 it replays a fixed number of rounds twice, untraced and then
traced, and reports per-layer metrics plus the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration
from tracer import Tracer, assert_unpatched, layer_metrics
from workloads import WORKLOADS, Session

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

SETUP_REPEATS = 5
# The timed loop runs at least this many rounds, so a tail percentile with
# ten samples above it always exists.
MIN_ROUNDS = 11
CALIBRATION_SAMPLES = 15
# Traced runs replay ceil(seconds * rate) rounds, a count fixed by --seconds
# alone, so per-layer counts repeat exactly for a given seed.
TRACE_ROUNDS_PER_SECOND = {"wide_session": 4.0, "cli_ceremony": 1.2, "audit": 0.6}
MODULES = ("fieldpoly", "params", "hashing", "scheme", "yang", "oracle", "fileio", "cli")


def load_package():
    """Import crtdhss from this checkout's src/, never from anywhere else."""
    if not (SRC / "crtdhss" / "__init__.py").is_file():
        raise SystemExit(f"error: no crtdhss sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    crt = importlib.import_module("crtdhss")
    for name in MODULES:
        importlib.import_module(f"crtdhss.{name}")
    if not Path(crt.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: crtdhss was imported from {crt.__file__}, not {SRC}")
    return crt


def tail(values):
    """(q, value): the highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    q = 100 * (n - 10) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(values)[rank - 1]


def timed_setups(crt, workload_cls, seed, workspace):
    """Set up SETUP_REPEATS times, each from an empty CRT-basis cache.

    Each set-up draws its own inputs from the seed: the work of a set-up
    depends on its draw (how many random candidates generate_moduli tests),
    and a median over several draws varies less from seed to seed than one
    draw does. The last set-up uses the same draw as the traced run.
    Returns the last workload, ready for the rounds, with the scaled and the
    raw time of every set-up.
    """
    scaled, raw = [], []
    for key in [f"setup-{k}" for k in range(1, SETUP_REPEATS)] + ["setup"]:
        crt.fieldpoly._crt_basis.cache_clear()
        before = [calibration.kernel() for _ in range(CALIBRATION_SAMPLES)]
        start = time.perf_counter()
        workload = workload_cls(crt, seed, workspace)
        workload.setup(Session(), key)
        elapsed = time.perf_counter() - start
        after = [calibration.kernel() for _ in range(CALIBRATION_SAMPLES)]
        raw.append(elapsed)
        scaled.append(elapsed * calibration.scale(before + after))
    return workload, scaled, raw


def run_rounds(workload, session, rounds, seconds=0.0) -> float:
    """Rounds 0, 1, ... until at least `rounds` are done and `seconds` have passed."""
    start = time.perf_counter()
    index = 0
    while index < rounds or time.perf_counter() - start < seconds:
        session.round = index
        began = time.perf_counter()
        workload.run_round(session, index)
        session.round_wall[index] = time.perf_counter() - began
        index += 1
    return time.perf_counter() - start


def print_table(rows) -> None:
    print(f"{'metric':<44} {'value':>14} {'unit':<6} {'samples':>7}  note")
    for name, value, unit, samples, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<44} {shown:>14} {unit:<6} {samples:>7}  {note}")


def latency_rows(kind, seconds_list):
    values = [s * 1000 for s in seconds_list]
    rows = [(f"{kind}_ms_p50", statistics.median(values), "ms", len(values), "median")]
    found = tail(values)
    if found is None:
        rows.append((f"{kind}_ms_tail", float("nan"), "ms", len(values), "fewer than 11 samples"))
    else:
        rows.append((f"{kind}_ms_tail", found[1], "ms", len(values), f"p{found[0]}"))
    return rows


def scaled_rounds(ops):
    """[(factor, ops of the round)]: each round is scaled by its median kernel time."""

    rounds: dict[object, list] = {}
    for op in ops:
        rounds.setdefault(op.round, []).append(op)
    return [
        (calibration.scale([op.kernel_s for op in members]), members)
        for members in rounds.values()
    ]


def measure(crt, workload_cls, seed, seconds, workspace):
    assert_unpatched()
    workload, setups, raw_setups = timed_setups(crt, workload_cls, seed, workspace)
    session = Session(calibrate=True)
    loop_s = run_rounds(workload, session, MIN_ROUNDS, seconds)
    assert_unpatched()

    ops = session.ops
    round_ms, raw_round_ms = [], []
    by_kind: dict[str, list[float]] = {}
    audit_s = []
    work_s = scaled_work_s = 0.0
    for factor, members in scaled_rounds(ops):
        wall = session.round_wall[members[0].round] - sum(op.kernel_s for op in members)
        work_s += wall
        scaled_work_s += wall * factor
        raw = sum(op.seconds for op in members)
        raw_round_ms.append(raw * 1000)
        round_ms.append(raw * factor * 1000)
        for op in members:
            by_kind.setdefault(op.kind, []).append(op.seconds * factor)
        analyses = [op.seconds for op in members if op.kind.startswith("analyze_")]
        if analyses:
            audit_s.append(sum(analyses) * factor)

    failed = sum(1 for op in ops if not op.ok)
    ops_per_s = (len(ops) - failed) / scaled_work_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setups)
    round_p50 = statistics.median(round_ms)
    tail_q, round_tail = tail(round_ms)

    rows = [
        ("setup_s", setup_s, "s", len(setups), "median of set-ups, CRT cache cleared"),
        ("round_ms_p50", round_p50, "ms", len(round_ms), "median round"),
        ("round_ms_tail", round_tail, "ms", len(round_ms), f"p{tail_q} round"),
        ("ops_per_s", ops_per_s, "1/s", len(ops), f"checked ops over {loop_s:.2f} s of loop"),
        ("peak_rss_mb", peak_rss_mb, "MB", 1, "ru_maxrss of this process, not scaled"),
        ("failed_ops_ratio", failed / len(ops), "ratio", len(ops), "wrong output or exit code"),
    ]
    for kind, times in by_kind.items():
        rows += latency_rows(kind, times)
    if audit_s:
        rows.append(("audit_s_p50", statistics.median(audit_s), "s", len(audit_s), "both modes"))
    rows += [
        ("raw.setup_s", statistics.median(raw_setups), "s", len(setups), "unscaled"),
        ("raw.round_ms_p50", statistics.median(raw_round_ms), "ms", len(raw_round_ms), "unscaled"),
        ("raw.ops_per_s", (len(ops) - failed) / work_s, "1/s", len(ops), "unscaled"),
        ("speed_scale", scaled_work_s / work_s, "ratio", len(ops),
         f"reference {calibration.REFERENCE_S * 1e6:.0f} us / kernel time"),
    ]
    print("times are scaled to reference machine speed (perfbench/calibration.py)")
    print_table(rows)
    print("wait time: none to measure; one single-threaded client, no queues or pools")

    metrics = {
        "setup_s": (setup_s, "s"),
        "round_ms_p50": (round_p50, "ms"),
        "round_ms_tail": (round_tail, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return len(ops), failed, metrics


def measure_traced(crt, workload_cls, seed, seconds, workspace):
    rounds = max(1, math.ceil(seconds * TRACE_ROUNDS_PER_SECOND[workload_cls.name]))
    assert_unpatched()
    workload = workload_cls(crt, seed, workspace)
    workload.setup(Session())
    plain = Session(calibrate=True)
    run_rounds(workload, plain, rounds)

    basis = crt.fieldpoly._crt_basis
    basis.cache_clear()
    tracer = Tracer(crt)
    tracer.install()
    try:
        traced = Session(tracer, calibrate=True)
        tracer.begin_op("setup")
        workload = workload_cls(crt, seed, workspace)
        workload.setup(traced)
        before = basis.cache_info()
        run_rounds(workload, traced, rounds)
        after = basis.cache_info()
    finally:
        tracer.uninstall()
    assert_unpatched()

    spans_file = OUT_DIR / f"spans-{workload_cls.name}-seed{seed}.tsv"
    tracer.write(spans_file)
    metrics = layer_metrics(tracer, after.hits - before.hits, after.misses - before.misses)
    metrics["trace.rounds"] = (rounds, "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    untraced_s, traced_s = (
        sum(factor * sum(op.seconds for op in members) for factor, members in scaled_rounds(ops))
        for ops in (plain.ops, traced.ops)
    )
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")

    print(f"traced: one set-up plus {rounds} rounds; untraced replay {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s; spans in {spans_file.relative_to(ROOT)}")
    print("wait time: none to measure; one single-threaded client, no queues or pools")
    print_table([(name, value, unit, rounds, "") for name, (value, unit) in metrics.items()])
    ops = plain.ops + traced.ops
    failed = sum(1 for op in ops if not op.ok)
    return len(ops), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workspace = TMP_DIR / f"{args.workload}-{os.getpid()}"
    try:
        crt = load_package()
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        run = measure_traced if args.trace else measure
        attempted, failed, metrics = run(
            crt, WORKLOADS[args.workload], args.seed, args.seconds, workspace
        )
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
