"""One benchmark process: set up one workload, run its share of the op list, report.

The runner (``run.py``) starts this script with the plan as JSON on stdin and
the engine selection in the environment (``REPRO_SOLVER``,
``REPRO_ANALYSIS_CACHE``).  It prints one JSON line: when its first timed op
started (a ``perf_counter`` stamp, comparable across processes because the
clock is system-wide), per-op latencies, the host-speed kernel samples
(``hostspeed.py``), op counts, failures, peak RSS and, when
traced, the raw per-layer totals.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import resource
import signal
import subprocess
import sys
import threading
from time import perf_counter

import common
import hostspeed
import tracing

#: at most this many failure messages travel back to the runner
MAX_ERRORS = 5


class Outcome:
    """Per-process tallies; ``check`` counts a mismatch as a failed op."""

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _install_store(plan) -> str:
    store_root = os.path.join(plan["work"], "store")
    common.install_pinned_spec(store_root)
    return store_root


def timed_ops(ops, run_op, verify, tracer, outcome):
    """Run and time each op under the host-speed sampler, tracing only inside ops.

    Latencies leave out the sampler's own time.  Returns the first op's
    start and the summed latency of the ops.
    """
    sampler = outcome.sampler
    first_op_at = perf_counter()
    with sampler:
        for item in ops:
            outcome.attempted += 1
            tracer.active = True
            started = sampler.clock()
            try:
                result = run_op(item)
            except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
                tracer.active = False
                outcome.fail(f"op {item}: {type(error).__name__}: {error}")
                continue
            outcome.latencies.append(sampler.clock() - started)
            tracer.active = False
            verify(item, result, outcome)
    sampler.sample()  # at least one sample, even if every op failed at once
    return {"first_op_at": first_op_at, "timed_s": sum(outcome.latencies)}


# ------------------------------------------------------------------- learning
def run_learn(plan, tracer, outcome):
    from repro.engine import InferenceEngine, fsa_to_dict
    from repro.learn import AtlasConfig

    name = plan["workload"]
    expected = plan["expected"]
    clusters = common.LEARN_CLUSTERS[name]
    budget = common.LEARN_BUDGETS[name]
    if plan["trace"]:
        tracing.install_learn_layers(tracer)

    def learn(seed):
        # the enumerate strategy consumes no randomness, so the cluster seed
        # drawn from the workload seed must not change the automaton
        return InferenceEngine().run(
            AtlasConfig(clusters=clusters, enumeration_budget=budget, seed=seed)
        )

    def verify(seed, result, tally) -> None:
        digest = common.fsa_digest(fsa_to_dict(result.fsa))
        executions = result.oracle_stats.executions
        if tally.check(digest == expected["fsa_digest"], f"op {seed}: fsa digest {digest[:12]}"):
            tally.check(
                executions == expected["executions"],
                f"op {seed}: {executions} executions, expected {expected['executions']}",
            )

    return timed_ops(plan["ops"], learn, verify, tracer, outcome)


# ------------------------------------------------------------ analysis, cold
def _verify_flows(expected, want_outcome):
    """A check of one answer: every report has *want_outcome* and the reference flows."""

    def verify(seed, reports, tally) -> None:
        outcomes = [report["timing"].get("solve_outcome") for report in reports]
        if tally.check(
            outcomes == [want_outcome] * len(outcomes), f"seed {seed}: outcomes {outcomes}"
        ):
            digest = common.flow_digest(
                {key: report[key] for key in ("program", "spec_id", "flows")}
                for report in reports
            )
            tally.check(digest == expected[str(seed)], f"seed {seed}: flow digest {digest[:12]}")

    return verify


def _warm_up(seeds, run_op, verify) -> None:
    """Answer each seed once, untimed; any failure aborts the process."""
    tally = Outcome()
    for seed in seeds:
        verify(seed, run_op(seed), tally)
    if tally.failed:
        raise RuntimeError("warm-up failed: " + "; ".join(tally.errors))


def _in_process(seeds, store_root):
    """``run_request`` plus render, under the analyzer ``resolve_analyzer`` builds."""
    from repro.service import api
    from repro.service.store import SpecStore

    requests = {
        seed: api.AnalyzeRequest.from_dict(common.request_document(seed)) for seed in seeds
    }
    analyzer = api.resolve_analyzer(requests[seeds[0]], SpecStore(store_root))

    def analyze(seed):
        return api.run_request(requests[seed], analyzer).to_dict()["reports"]

    return analyze


def run_analyze_cold(plan, tracer, outcome):
    analyze = _in_process(plan["warmup"] + plan["ops"], _install_store(plan))
    if plan["trace"]:
        tracing.install_serve_layers(tracer)
    verify = _verify_flows(plan["expected"], "cold")
    _warm_up(plan["warmup"], analyze, verify)
    return timed_ops(plan["ops"], analyze, verify, tracer, outcome)


# ------------------------------------------------------------- served, warm
class Daemon:
    """``repro serve --processes 1``, run inside this process's group.

    The runner kills that group once this process has ended, which also
    reaps a worker a killed daemon would leave behind.
    """

    def __init__(self, store_root: str):
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", store_root,
                "--port", "0",
                "--processes", "1",
                "--poll-interval", "0",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def wait_listening(self, timeout: float):
        """Block until the ``listening on http://HOST:PORT`` line; returns ``(host, port)``."""
        marker = "listening on http://"
        while True:
            line = self._lines.get(timeout=timeout)
            if line is None:
                raise RuntimeError(f"daemon exited with {self.process.wait()} before listening")
            if marker in line:
                address = line.split(marker, 1)[1].split()[0]
                host, _, port = address.rpartition(":")
                return host, int(port)

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the daemon's front door and its worker processes."""
        total_kb = 0
        pending = [self.process.pid]
        while pending:
            pid = pending.pop()
            try:
                with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                with open(f"/proc/{pid}/task/{pid}/children", "r", encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except (FileNotFoundError, ProcessLookupError):
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5)


def _parse_server_timing(header: str) -> dict:
    phases = {}
    for part in header.split(","):
        name, _, duration = part.strip().partition(";dur=")
        if duration:
            phases[name] = float(duration) / 1000.0
    return phases


def _post(connection, body: bytes):
    connection.request("POST", "/analyze", body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    payload = response.read()
    return response.status, response.getheader("Server-Timing", ""), payload


def _closed_loop(address, bodies, schedule, segment, calibrate):
    """Send ``schedule`` (keys of *bodies*) over one keep-alive connection.

    Each request goes out once the previous reply is in.  After every
    *segment* requests, and after the last, *calibrate* runs with nothing
    in flight, so host-speed samples never land inside a request.  Returns
    one ``(sent, done, status, timing, payload)`` record per request.
    """
    records = []
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        for index, seed in enumerate(schedule):
            sent = perf_counter()
            try:
                status, timing, payload = _post(connection, bodies[seed])
            except (OSError, http.client.HTTPException) as error:
                status, timing, payload = None, "", repr(error)
                connection.close()
                connection = http.client.HTTPConnection(*address, timeout=60)
            records.append((sent, perf_counter(), status, timing, payload))
            if (index + 1) % segment == 0 or index + 1 == len(schedule):
                calibrate()
    finally:
        connection.close()
    return records


def run_serve_warm(plan, tracer, outcome):
    store_root = _install_store(plan)
    working_set = plan["working_set"]
    bodies = {
        seed: json.dumps(common.request_document(seed)).encode("utf-8") for seed in working_set
    }
    verify_cold = _verify_flows(plan["expected"], "cold")
    verify_hit = _verify_flows(plan["expected"], "hit")
    daemon = Daemon(store_root)
    try:
        address = daemon.wait_listening(timeout=120)
        connection = http.client.HTTPConnection(*address, timeout=60)

        def fetch(seed):
            status, _timing, payload = _post(connection, bodies[seed])
            if status != 200:
                raise RuntimeError(f"warm-up seed {seed}: HTTP {status}")
            return json.loads(payload)["reports"]

        try:
            # solve the working set once (cold), then take one pass of hits
            _warm_up(working_set, fetch, verify_cold)
            _warm_up(working_set, fetch, verify_hit)
        finally:
            connection.close()
        first_op_at = perf_counter()
        records = _closed_loop(
            address,
            bodies,
            plan["ops"],
            plan["segment"],
            lambda: [outcome.sampler.sample() for _ in range(plan["segment_samples"])],
        )
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    splits = {"queue": [], "analysis": [], "transport": []}
    for seed, (sent, done, status, timing, payload) in zip(plan["ops"], records):
        outcome.attempted += 1
        if not outcome.check(status == 200, f"seed {seed}: HTTP {status} {payload!r:.80}"):
            continue
        try:
            reports = json.loads(payload)["reports"]
        except (ValueError, KeyError) as error:
            outcome.fail(f"seed {seed}: unreadable response ({error})")
            continue
        verify_hit(seed, reports, outcome)
        latency = done - sent
        phases = _parse_server_timing(timing)
        outcome.latencies.append(latency)
        splits["queue"].append(phases.get("queue", 0.0))
        splits["analysis"].append(phases.get("analysis", 0.0))
        splits["transport"].append(latency - phases.get("queue", 0.0) - phases.get("analysis", 0.0))
    report = {
        "first_op_at": first_op_at,
        "timed_s": sum(outcome.latencies),
        "peak_rss_mb": peak_rss_mb,
        "served": splits,
    }
    if plan["trace"]:
        report["hit_path"] = _trace_hit_path(plan, store_root, tracer, outcome.sampler)
    return report


def _trace_hit_path(plan, store_root, tracer, sampler):
    """Time the hit-path layers in-process on the daemon's working set and cache."""
    analyze = _in_process(plan["working_set"], store_root)
    tracing.install_serve_layers(tracer)
    verify = _verify_flows(plan["expected"], "hit")
    _warm_up(plan["working_set"], analyze, verify)
    hits = Outcome(sampler)
    timed_ops(plan["working_set"] * plan["hit_passes"], analyze, verify, tracer, hits)
    if hits.failed:
        raise RuntimeError("in-process hit path failed: " + "; ".join(hits.errors))
    return {"latencies": hits.latencies}


WORKLOADS = {
    "learn-rpni": run_learn,
    "learn-oracle": run_learn,
    "analyze-cold": run_analyze_cold,
    "serve-warm": run_serve_warm,
}


def main() -> int:
    plan = json.load(sys.stdin)
    # one CPU for the process and the daemon it starts: a served request's
    # hand-offs between processes are then context switches on that CPU,
    # which a busy host slows in step with the ops, not cross-CPU wake-ups
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sampler = hostspeed.Sampler(plan["sample_interval"])
    tracer = tracing.Tracer(clock=sampler.clock)
    outcome = Outcome(sampler)
    report = WORKLOADS[plan["workload"]](plan, tracer, outcome)
    report.setdefault("peak_rss_mb", _peak_rss_mb())
    report.update(
        latencies=outcome.latencies,
        kernel_s=sampler.samples,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
    )
    if plan["trace"]:
        report["layers"] = tracing.raw_totals(tracer)
        report["root_s"] = tracer.root_seconds()
        tracer.dump(plan["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
