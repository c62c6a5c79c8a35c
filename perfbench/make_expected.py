"""Regenerate ``perfbench/expected.json``: the outputs every op is checked against.

* Analysis requests: for each of the ``POOL_SIZE`` request seeds, the flow
  digest computed by the *reference* engine (``pointsto.cfl`` through
  :class:`AndersenAnalysis`, then the taint client) over the pinned spec.
  The workloads run the compiled engine, so a mismatch is a real
  disagreement between the two engines, not a replay of the code under test.
* Learn ops: the canonical automaton digest and the oracle's witness
  execution count of each learn workload's one inference call.

Run from the repository root (takes a few minutes)::

    python3 perfbench/make_expected.py

The pinned spec itself was produced once with ``repro learn --store DIR``
(quick preset, default seed) and its index line and gzipped payload copied
into ``perfbench/spec/``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import common

sys.path.insert(0, common.SRC_DIR)


def reference_digests(store_root: str) -> dict:
    from repro.client.taint import InformationFlowAnalysis
    from repro.pointsto.andersen import AndersenAnalysis
    from repro.service.analyzer import ClientAnalyzer, FlowReport, flow_to_dict
    from repro.service.api import AnalyzeRequest, build_corpus
    from repro.service.store import SpecStore

    analyzer = ClientAnalyzer.from_store(SpecStore(store_root), spec_id=common.PINNED_SPEC_ID)
    digests = {}
    for offset in range(common.POOL_SIZE):
        seed = common.POOL_BASE + offset
        request = AnalyzeRequest.from_dict(common.request_document(seed))
        canonical = []
        for app in build_corpus(request):
            merged = app.program.merged_with(analyzer.base_program)
            points_to = AndersenAnalysis(merged).run()
            flows = InformationFlowAnalysis(merged).run(points_to=points_to).flows
            report = FlowReport.from_dict(
                {
                    "program": app.name,
                    "spec_id": common.PINNED_SPEC_ID,
                    "flows": [flow_to_dict(flow) for flow in flows],
                }
            )
            canonical.append(report.canonical())
        digests[str(seed)] = common.flow_digest(canonical)
        if offset % 64 == 63:
            sys.stderr.write(f"[expected] {offset + 1}/{common.POOL_SIZE} requests\n")
    return digests


def learn_expectations() -> dict:
    from repro.engine import InferenceEngine, fsa_to_dict
    from repro.learn import AtlasConfig

    expected = {}
    for name, clusters in common.LEARN_CLUSTERS.items():
        result = InferenceEngine().run(
            AtlasConfig(clusters=clusters, enumeration_budget=common.LEARN_BUDGETS[name])
        )
        expected[name] = {
            "fsa_digest": common.fsa_digest(fsa_to_dict(result.fsa)),
            "executions": result.oracle_stats.executions,
        }
    return expected


def main() -> int:
    store_root = os.path.join(common.WORK_DIR, "make-expected")
    shutil.rmtree(store_root, ignore_errors=True)
    common.install_pinned_spec(store_root)
    try:
        document = {
            "spec_id": common.PINNED_SPEC_ID,
            "request": common.request_document("<seed>"),
            "learn": learn_expectations(),
            "flow_digests": reference_digests(store_root),
        }
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    with open(common.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
