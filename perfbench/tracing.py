"""Span recording around calls into each layer, installed from outside ``src/``.

Each layer boundary is wrapped where the calling code looks it up (a method
on its class, or a name imported into the calling module), so the program
itself carries no instrumentation.  A span is ``[name, start, end,
parent]``, kept in memory and written out when the run ends.  A layer's self
time is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Records spans and counts while :attr:`active`; wrappers cost one check when not.

    Spans are timed with *clock* (by default ``perf_counter``).
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.active = False
        self._stack = []

    def wrap(self, owner, attribute, name, on_result=None):
        """Replace ``owner.attribute`` with a span-recording wrapper named *name*.

        *on_result* is called with the wrapped call's result to record
        counts where the work happens.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(record)
            stack.append(index)
            record[1] = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = tracer.clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attribute, traced)

    # ---------------------------------------------------------------- analysis
    def self_times(self):
        """``(self seconds by span name, span count by span name)`` over every span."""
        children = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - children[index]
            calls[name] += 1
        return totals, calls

    def root_seconds(self) -> float:
        """Time covered by top-level spans: the sum of every span's self time."""
        return sum(end - start for _name, start, end, parent in self.spans if parent < 0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def install_learn_layers(tracer: Tracer) -> None:
    """Wrap the learn path: engine, enumeration, oracle, synthesis, interpreter, RPNI, codegen."""
    import repro.learn.pipeline as pipeline
    from repro.engine import InferenceEngine
    from repro.learn.enumerate import CandidateEnumerator
    from repro.learn.oracle import WitnessOracle
    from repro.specs.fsa import FSA
    from repro.synthesis.unit_test import UnitTestSynthesizer

    counts = tracer.counts

    def engine_result(result):
        stats = result.oracle_stats
        counts["oracle.queries"] += stats.queries
        counts["oracle.cache_hits"] += stats.cache_hits
        counts["oracle.synthesis_failures"] += stats.synthesis_failures
        counts["oracle.witnesses_passed"] += stats.witnesses_passed

    def enumerate_result(result):
        counts["enumerate.candidates"] += result[1].candidates

    def rpni_result(result):
        stats = result[1]
        counts["rpni.merges_attempted"] += stats.merges_attempted
        counts["rpni.merges_accepted"] += stats.merges_accepted
        counts["rpni.oracle_checks"] += stats.oracle_checks

    tracer.wrap(InferenceEngine, "run", "engine", engine_result)
    tracer.wrap(CandidateEnumerator, "run", "learn.enumerate", enumerate_result)
    tracer.wrap(WitnessOracle, "__call__", "learn.oracle")
    tracer.wrap(UnitTestSynthesizer, "synthesize", "synthesis")
    tracer.wrap(WitnessOracle, "execute_witness", "interp")
    tracer.wrap(pipeline, "learn_fsa", "learn.rpni", rpni_result)
    tracer.wrap(FSA, "merge", "specs.fsa.merge")
    tracer.wrap(pipeline, "generate_code_fragments", "specs.codegen")


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap the analysis path from ``run_request`` down to the bitset solver."""
    import repro.service.analyzer as analyzer
    import repro.service.api as api
    import repro.solve.engine as solve_engine
    from repro.client.taint import InformationFlowAnalysis
    from repro.pointsto.graph import PointsToGraph
    from repro.solve.bitset import BitsetCFLSolver
    from repro.solve.cache import AnalysisResultCache

    counts = tracer.counts

    def cache_get_result(result):
        counts["cache.hits"] += result is not None

    def engine_result(result):
        counts["engine." + result[1]] += 1

    tracer.wrap(api, "run_request", "service.request")
    tracer.wrap(api.AnalyzeResponse, "to_dict", "service.render")
    tracer.wrap(api, "benchmark_suite", "benchgen.corpus")
    tracer.wrap(analyzer, "program_digest", "lang.serialize.digest")
    tracer.wrap(AnalysisResultCache, "get", "solve.cache.get", cache_get_result)
    tracer.wrap(AnalysisResultCache, "put", "solve.cache.put")
    tracer.wrap(solve_engine.CompiledAnalysisEngine, "analyze", "solve.engine", engine_result)
    tracer.wrap(solve_engine, "extension_starts", "solve.delta.scan")
    tracer.wrap(BitsetCFLSolver, "solve", "solve.bitset.solve")
    tracer.wrap(BitsetCFLSolver, "fork", "solve.bitset.fork")
    tracer.wrap(PointsToGraph, "__init__", "pointsto.graph.extract")
    tracer.wrap(InformationFlowAnalysis, "run", "client.taint")


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def raw_totals(tracer: Tracer) -> dict:
    """What one process ships to the runner: self seconds, span counts, counters."""
    totals, calls = tracer.self_times()
    return {"self_s": dict(totals), "calls": dict(calls), "counts": dict(tracer.counts)}


def merge_totals(parts) -> dict:
    merged = {"self_s": Counter(), "calls": Counter(), "counts": Counter()}
    for part in parts:
        for key in merged:
            merged[key].update(part[key])
    return merged


def layer_metrics(raw: dict, ops: int) -> dict:
    """The per-layer metrics of a run's traced ops, as per-op means.

    Times are in ms per op; counts are per op; ratios are over every call.
    Layers the workload never reached report 0.
    """
    totals, calls, counts = raw["self_s"], raw["calls"], Counter(raw["counts"])
    per_op = max(ops, 1)

    def ms(name):
        return totals.get(name, 0.0) * 1000.0 / per_op

    def count(value):
        return value / per_op

    synth_calls = calls.get("synthesis", 0)
    executions = calls.get("interp", 0)
    return {
        "learn.rpni.self_ms": ms("learn.rpni"),
        "learn.rpni.merges_attempted": count(counts["rpni.merges_attempted"]),
        "learn.rpni.merge_accept_ratio": _ratio(
            counts["rpni.merges_accepted"], counts["rpni.merges_attempted"]
        ),
        "learn.rpni.oracle_checks": count(counts["rpni.oracle_checks"]),
        "specs.fsa.merge_ms": ms("specs.fsa.merge"),
        "synthesis.self_ms": ms("synthesis"),
        "synthesis.calls": count(synth_calls),
        "synthesis.failure_ratio": _ratio(counts["oracle.synthesis_failures"], synth_calls),
        "interp.self_ms": ms("interp"),
        "interp.executions": count(executions),
        "interp.pass_ratio": _ratio(counts["oracle.witnesses_passed"], executions),
        "learn.oracle.queries": count(counts["oracle.queries"]),
        "learn.oracle.hit_ratio": _ratio(counts["oracle.cache_hits"], counts["oracle.queries"]),
        "learn.oracle.self_ms": ms("learn.oracle"),
        "learn.enumerate.self_ms": ms("learn.enumerate"),
        "learn.enumerate.candidates": count(counts["enumerate.candidates"]),
        "specs.codegen.self_ms": ms("specs.codegen"),
        "engine.self_ms": ms("engine"),
        "solve.bitset.solve_ms": ms("solve.bitset.solve"),
        "solve.bitset.solve_calls": count(calls.get("solve.bitset.solve", 0)),
        "solve.bitset.fork_ms": ms("solve.bitset.fork"),
        "solve.engine.self_ms": ms("solve.engine"),
        "solve.engine.cold": count(counts["engine.cold"]),
        "solve.engine.incremental": count(counts["engine.incremental"]),
        "solve.delta.scan_ms": ms("solve.delta.scan"),
        "solve.delta.useful_ratio": _ratio(counts["engine.incremental"], calls.get("solve.delta.scan", 0)),
        "pointsto.graph.extract_ms": ms("pointsto.graph.extract"),
        "client.taint.self_ms": ms("client.taint"),
        "solve.cache.get_ms": ms("solve.cache.get"),
        "solve.cache.put_ms": ms("solve.cache.put"),
        "solve.cache.hit_ratio": _ratio(counts["cache.hits"], calls.get("solve.cache.get", 0)),
        "benchgen.corpus_ms": ms("benchgen.corpus"),
        "lang.serialize.digest_ms": ms("lang.serialize.digest"),
        "service.request_self_ms": ms("service.request"),
        "service.render_ms": ms("service.render"),
    }
