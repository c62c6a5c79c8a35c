"""Benchmark runner for the Atlas learn and serve paths.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One run splits its seeded op list across ``PROCESSES`` fresh processes, run
one after another, each of which sets up the workload from scratch (imports,
pinned spec, daemon, warm-up) before its first timed op.  Every time a
process reports is scaled to the reference host speed by the kernel it
sampled while its ops ran (``hostspeed.py``).  ``setup_s`` is the median of the
set-ups; the latency percentiles are medians over windows of consecutive
ops (``WINDOW_OPS``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  ``--workload all`` runs every workload
both ways and prints a table.  See ``perfbench/README.md`` for the workloads
and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import common
import hostspeed
import tracing

WORKLOADS = ("learn-rpni", "learn-oracle", "analyze-cold", "serve-warm")
#: fresh processes per run; each sets up once and runs a share of the ops.
#: Identical work runs up to 10 % faster in one process than in the next,
#: so a run's medians span 5-6 processes where set-up is cheap enough:
#: one op each for the learn workloads.
PROCESSES = {"learn-rpni": 6, "learn-oracle": 5, "analyze-cold": 3, "serve-warm": 5}
#: op cost on the reference machine: a run's op count is ``seconds / cost``,
#: rounded to a whole number (at least 1) of ops per process
NOMINAL_OP_SECONDS = {
    "learn-rpni": 2.4,
    "learn-oracle": 3.0,
    "analyze-cold": 0.068,
    "serve-warm": 0.0035,
}
#: untimed cold requests each analyze-cold process answers before timing
ANALYZE_WARMUP_OPS = 3
#: serve-warm: requests between host-speed samples, samples taken there,
#: working set, traced hit passes
SERVE_SEGMENT = 100
SERVE_SEGMENT_SAMPLES = 3
SERVE_WORKING_SET = 32
SERVE_HIT_PASSES = 3
#: seconds between host-speed samples during in-process ops (each costs ~5 ms,
#: which the op latencies leave out)
SAMPLE_INTERVAL_S = 0.1
#: how a process's kernel samples are summarized, to match how its
#: latencies are: a learn process times one op of seconds, whose latency
#: takes in every slow moment of it, so its samples are averaged; the
#: analysis workloads report medians of many short ops, which a rare slow
#: moment does not move, so their samples are summarized by the median
SPEED_STATISTIC = {
    "learn-rpni": statistics.mean,
    "learn-oracle": statistics.mean,
    "analyze-cold": statistics.median,
    "serve-warm": statistics.median,
}
#: latency percentiles are taken per window of consecutive ops in one
#: process, and the run reports their median: about 2 s of cold requests
#: and 1 s of served ones (30 samples above each p90).  The learn
#: workloads' ops form one window.
WINDOW_OPS = {"analyze-cold": 31, "serve-warm": 300}
#: every process of a run must finish inside this many seconds in total
RUN_DEADLINE_SECONDS = 170.0
#: a traced run fails when its layer spans cover less of the op wall time
MIN_TRACE_COVERAGE = 0.9

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------- plans
def _split(items, parts):
    return [items[index::parts] for index in range(parts)]


def _hit_schedule(rng, working_set, length):
    """Seeded passes over the working set with no request twice in a row."""
    schedule = []
    while len(schedule) < length:
        batch = list(working_set)
        rng.shuffle(batch)
        if schedule and batch[0] == schedule[-1]:
            batch[0], batch[-1] = batch[-1], batch[0]
        schedule.extend(batch)
    return schedule[:length]


def _op_count(workload, seconds):
    processes = PROCESSES[workload]
    return processes * max(1, round(seconds / (NOMINAL_OP_SECONDS[workload] * processes)))


def build_plans(workload, seed, seconds, trace, expected):
    """Per-process plans; every input is drawn from ``(workload, seed)``."""
    rng = random.Random(f"{workload}/{seed}")
    processes = PROCESSES[workload]
    pool = [common.POOL_BASE + offset for offset in range(common.POOL_SIZE)]
    plans = []
    if workload in common.LEARN_CLUSTERS:
        ops = [rng.randrange(2**31) for _ in range(_op_count(workload, seconds))]
        for share in _split(ops, processes):
            plans.append({"ops": share, "expected": expected["learn"][workload]})
    elif workload == "analyze-cold":
        needed = _op_count(workload, seconds) + ANALYZE_WARMUP_OPS * processes
        if needed > len(pool):
            raise SystemExit(f"analyze-cold needs {needed} distinct requests; the pool has {len(pool)}")
        drawn = rng.sample(pool, needed)
        warmups = _split(drawn[: ANALYZE_WARMUP_OPS * processes], processes)
        for warmup, share in zip(warmups, _split(drawn[len(warmups) * ANALYZE_WARMUP_OPS :], processes)):
            plans.append({"warmup": warmup, "ops": share})
    else:
        working_set = rng.sample(pool, SERVE_WORKING_SET)
        per_process = _op_count(workload, seconds) // processes
        for _ in range(processes):
            plans.append(
                {
                    "working_set": working_set,
                    "ops": _hit_schedule(rng, working_set, per_process),
                    "segment": SERVE_SEGMENT,
                    "segment_samples": SERVE_SEGMENT_SAMPLES,
                    "hit_passes": SERVE_HIT_PASSES,
                }
            )
    for index, plan in enumerate(plans):
        plan.update(
            workload=workload,
            trace=bool(trace),
            index=index,
            sample_interval=SAMPLE_INTERVAL_S,
        )
        if workload not in common.LEARN_CLUSTERS:
            needed = set(plan.get("warmup", ())) | set(plan["ops"]) | set(plan.get("working_set", ()))
            plan["expected"] = {str(s): expected["flow_digests"][str(s)] for s in needed}
    return plans


# -------------------------------------------------------------------- running
def _stop_group(child) -> None:
    """Kill whatever is left in *child*'s process group, reap *child*, and
    wait until the group is empty."""
    pgid = child.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    child.wait()
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_process(plan, work_dir, deadline):
    """Run one workload process; returns its report, times rescaled, with ``setup_s``."""
    plan = dict(plan, work=work_dir, spans_path=os.path.join(
        common.WORK_DIR, f"spans-{plan['workload']}-p{plan['index']}.jsonl"
    ))
    env = dict(os.environ)
    env.pop("REPRO_JOURNAL", None)
    env.update(
        PYTHONPATH=common.SRC_DIR,
        PYTHONHASHSEED="0",
        REPRO_SOLVER="compiled",
        REPRO_ANALYSIS_CACHE=os.path.join(work_dir, "analysis-cache"),
    )
    spawned = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(common.BENCH_DIR, "workload.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(json.dumps(plan), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(child)
        child.communicate()
        raise RuntimeError(f"{plan['workload']} process {plan['index']} ran past the deadline")
    finally:
        _stop_group(child)
    if child.returncode != 0:
        raise RuntimeError(f"{plan['workload']} process {plan['index']} exited {child.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_op_at"] - spawned
    return rescale(report, SPEED_STATISTIC[plan["workload"]])


def rescale(report, statistic):
    """Scale every time in a process's report to the reference host speed.

    The factor is the *statistic* of the process's kernel times over
    ``REFERENCE_S``.
    """
    speed = statistic(report["kernel_s"]) / hostspeed.REFERENCE_S
    report["speed"] = speed
    report["setup_s"] /= speed
    report["timed_s"] /= speed
    report["latencies"] = [value / speed for value in report["latencies"]]
    for values in report.get("served", {}).values():
        values[:] = [value / speed for value in values]
    if "hit_path" in report:
        report["hit_path"]["latencies"] = [v / speed for v in report["hit_path"]["latencies"]]
    if "layers" in report:
        report["layers"]["self_s"] = {k: v / speed for k, v in report["layers"]["self_s"].items()}
        report["root_s"] /= speed
    return report


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def run_workload(workload, seed, seconds, trace, expected):
    """Run one workload; returns ``(result document, notes)``."""
    plans = build_plans(workload, seed, seconds, trace, expected)
    deadline = time.monotonic() + RUN_DEADLINE_SECONDS
    run_dir = os.path.join(common.WORK_DIR, f"run-{os.getpid()}")
    reports = []
    try:
        for plan in plans:
            work_dir = os.path.join(run_dir, f"p{plan['index']}")
            os.makedirs(work_dir)
            reports.append(run_process(plan, work_dir, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    errors = [error for report in reports for error in report["errors"]]
    # each process is one replicate of set-up plus measurement, and each of
    # its windows one replicate of the latency distribution; the run
    # reports medians over replicates, so a slow spell of the (shared) host
    # that covers a minority of them does not move the result
    per_process = [process_stats(report) for report in reports]
    if workload in WINDOW_OPS:
        windows = [
            window
            for report in reports
            for window in _windows(report["latencies"], WINDOW_OPS[workload])
        ]
    else:
        windows = [[value for report in reports for value in report["latencies"]]]
    notes = [
        f"{workload}: {attempted} ops in {len(reports)} processes, {failed} failed, "
        f"{sum(len(r['latencies']) for r in reports)} latency samples in {len(windows)} windows",
        "  per process (reference speed): " + "; ".join(
            f"host x{report['speed']:.3f}, setup {report['setup_s']:.3f} s, "
            f"p50 {stats['latency_p50_ms']:.2f} ms, p90 {stats['latency_p90_ms']:.2f} ms "
            f"({stats['samples']} ops)"
            for report, stats in zip(reports, per_process)
        ),
    ] + [f"  failure: {error}" for error in errors]
    correct = failed == 0 and all(stats["samples"] for stats in per_process)
    latency_p50_ms = statistics.median(statistics.median(w) for w in windows) * 1000.0
    if not trace:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "latency_p50_ms": latency_p50_ms,
            "latency_p90_ms": statistics.median(_p90(w) for w in windows) * 1000.0,
            "throughput_ops_s": (attempted - failed) / sum(r["timed_s"] for r in reports),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in per_process),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}
    else:
        metrics, coverage_note, covered = per_layer(reports, latency_p50_ms)
        notes.append(coverage_note)
        correct = correct and covered
    document = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return document, notes


def _windows(latencies, size):
    """Consecutive windows of *size* ops; a short tail joins the last."""
    windows = [latencies[start : start + size] for start in range(0, len(latencies), size)]
    if len(windows) > 1 and len(windows[-1]) < size / 2:
        windows[-2].extend(windows.pop())
    return windows


def process_stats(report) -> dict:
    """One process's latency percentiles and peak RSS."""
    latencies = report["latencies"] or [0.0]
    return {
        "samples": len(report["latencies"]),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": _p90(latencies) * 1000.0,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(reports, latency_p50_ms):
    """Per-layer metrics of a traced run, plus whether spans cover the op wall."""
    served = [report["served"] for report in reports if "served" in report]
    if served:
        traced_latencies = [v for r in reports for v in r["hit_path"]["latencies"]]
    else:
        traced_latencies = [v for r in reports for v in r["latencies"]]
    raw = tracing.merge_totals(report["layers"] for report in reports)
    values = tracing.layer_metrics(raw, len(traced_latencies))
    coverage = sum(r["root_s"] for r in reports) / max(sum(traced_latencies), 1e-12)

    def pooled(key):
        return [value for split in served for value in split[key]]

    kernel_s = [value for report in reports for value in report["kernel_s"]]
    values.update(
        {
            "host.kernel_ms": statistics.median(kernel_s) * 1000.0,
            "server.transport_ms": _mean(pooled("transport")) * 1000.0,
            "server.queue_ms": _mean(pooled("queue")) * 1000.0,
            "server.analysis_ms": _mean(pooled("analysis")) * 1000.0,
            "trace.latency_p50_ms": latency_p50_ms,
            "trace.coverage_ratio": coverage,
        }
    )
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
    note = (
        f"  trace: layer self times cover {coverage:.1%} of {len(traced_latencies)} traced ops' wall time"
    )
    return metrics, note, coverage >= MIN_TRACE_COVERAGE


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------- main
def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(results) -> None:
    for (workload, trace), document in results:
        kind = "per-layer" if trace else "end-to-end"
        print(f"{workload} [{kind}] correct={document['correct']} "
              f"attempted={document['attempted']} failed={document['failed']}")
        for name, metric in document["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")


def _exit_on_sigterm(signum, _frame):
    # unwinds through run_process's ``finally``, which stops the child's group
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isdir(os.path.join(common.SRC_DIR, "repro")):
        sys.stderr.write(f"perfbench: no program source at {common.SRC_DIR}\n")
        return 2
    expected = common.load_expected()
    os.makedirs(common.WORK_DIR, exist_ok=True)
    if args.workload != "all":
        document, notes = run_workload(args.workload, args.seed, args.seconds, args.trace, expected)
        for note in notes:
            print(note)
        print(json.dumps(document))
        return 0

    results = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            document, notes = run_workload(workload, args.seed, args.seconds, trace, expected)
            for note in notes:
                print(note)
            results.append(((workload, trace), document))
    _print_table(results)
    for workload in WORKLOADS:
        untraced = dict(results)[(workload, 0)]["metrics"]["latency_p50_ms"]["value"]
        traced = dict(results)[(workload, 1)]["metrics"]["trace.latency_p50_ms"]["value"]
        print(f"{workload}: tracing overhead {traced - untraced:+.4f} ms on latency_p50_ms")
    summary = {
        "correct": all(document["correct"] for _key, document in results),
        "attempted": sum(document["attempted"] for _key, document in results),
        "failed": sum(document["failed"] for _key, document in results),
        "metrics": {
            f"{workload}/{name}": metric
            for (workload, trace), document in results
            if not trace
            for name, metric in document["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
