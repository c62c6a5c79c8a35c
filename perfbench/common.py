"""Constants and helpers shared by the benchmark runner, its workloads and
the script that regenerates the committed expected values.

Everything the analysis workloads measure is pinned here: the stored
specification (committed under ``perfbench/spec/``), the request shape, and
the pool of request seeds whose reference flow digests live in
``perfbench/expected.json``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: scratch space for every run (temp stores, caches, span dumps); git-ignored
WORK_DIR = os.path.join(REPO_ROOT, ".perfbench-work")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
SPEC_DIR = os.path.join(BENCH_DIR, "spec")

#: the spec ``repro learn`` builds with its default quick preset (15 clusters)
PINNED_SPEC_ID = "f16f62202a43-ae083370f35f-v1"

#: request shape of the analysis workloads (the committed BENCH trajectory's)
SUITE_COUNT = 3
SUITE_MIN_STATEMENTS = 30
SUITE_MAX_STATEMENTS = 50

#: request seeds with committed reference digests: POOL_BASE .. POOL_BASE+POOL_SIZE-1
POOL_BASE = 100_000
POOL_SIZE = 1024


def install_pinned_spec(store_root: str) -> None:
    """Materialize the committed spec as a fresh :class:`SpecStore` at *store_root*.

    The store's own checksum (recorded in the committed index line) guards
    the payload: a damaged copy fails ``SpecStore.get`` loudly.
    """
    specs = os.path.join(store_root, "specs")
    os.makedirs(specs, exist_ok=True)
    shutil.copyfile(os.path.join(SPEC_DIR, "index.jsonl"), os.path.join(store_root, "index.jsonl"))
    with gzip.open(os.path.join(SPEC_DIR, PINNED_SPEC_ID + ".json.gz"), "rb") as source:
        with open(os.path.join(specs, PINNED_SPEC_ID + ".json"), "wb") as target:
            shutil.copyfileobj(source, target)


def request_document(suite_seed: int) -> dict:
    """The wire document of one analysis request, pinned to the committed spec."""
    return {
        "suite": {
            "count": SUITE_COUNT,
            "seed": suite_seed,
            "max_statements": SUITE_MAX_STATEMENTS,
            "min_statements": SUITE_MIN_STATEMENTS,
        },
        "spec_id": PINNED_SPEC_ID,
    }


def flow_digest(canonical_reports) -> str:
    """Digest of a request's answer: its reports' timing-free canonical encodings."""
    encoded = json.dumps(list(canonical_reports), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def fsa_digest(fsa_document: dict) -> str:
    """Digest of a learned automaton's canonical (sorted) encoding."""
    encoded = json.dumps(fsa_document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: the two learn workloads: one cold, serial, in-memory-cache inference each
LEARN_CLUSTERS = {
    "learn-rpni": (("Stack", "Iterator"),),
    "learn-oracle": (("HashMap", "HashSet", "ArrayList", "Iterator", "MapEntry"),),
}
LEARN_BUDGETS = {"learn-rpni": 2000, "learn-oracle": 12_000}
