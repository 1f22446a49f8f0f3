"""Per-stage wall times of a 500-patch ingest and a 250-patch lookup on the
``store_mixed`` deployment (perf/perfkit builds it), for one source tree.

usage: python benchmarks/read_path_stages.py <tree root> [seed]

Stage times come from wrapping functions with ``perf_counter`` (median over 40
rounds); the medians of the eight ``nearest_labeled(64)`` calls that follow
an ingest are printed by position.  The source of README's "Ingest cost" and
"Performance notes" tables (PR 24): run it on ``.`` and on a clone of the
parent commit, alternating.
"""
import statistics as st
import sys
import time

root, seed = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 7
sys.path[:0] = [f"{root}/src", f"{root}/perf"]
import numpy as np  # noqa: E402
from perfkit import workloads  # noqa: E402
import repro.core.fairds as fds  # noqa: E402
import repro.utils.cache as cache_mod  # noqa: E402
from repro.storage import vector_index as vi  # noqa: E402

inputs = workloads.generate("store_mixed", seed, "full", 12)
running = workloads.start(inputs)
dep, fresh = running.dep, inputs.fresh[0]
spent = {}


def wrap(owner, name, label=None):
    real = getattr(owner, name)
    label = label or name

    def timed(*a, **k):
        t = time.perf_counter()
        try:
            return real(*a, **k)
        finally:
            spent[label] = spent.get(label, 0.0) + time.perf_counter() - t
    setattr(owner, name, timed)


wrap(fds, "row_digests")
wrap(cache_mod.LRUCache, "get_many")
wrap(cache_mod.LRUCache, "put_many")
wrap(fds, "_transform64", "embedder.transform")
embed = fds.FairDS._embed
def timed_embed(gen, images):
    t = time.perf_counter()
    try:
        return embed(gen, images)
    finally:
        spent["_embed"] = spent.get("_embed", 0.0) + time.perf_counter() - t
fds.FairDS._embed = staticmethod(timed_embed)
wrap(vi, "routed_upsert")
import repro.storage.ivf_index as ivf  # noqa: E402
wrap(ivf, "routed_upsert")
wrap(vi.VectorIndex, "topk")

rows = {"ingest": [], "lookup": []}
position = [[] for _ in range(8)]
for r in range(42):
    images, labels = fresh.take(500)
    spent.clear(); t = time.perf_counter(); dep.ingest(images, labels); total = time.perf_counter() - t
    if r >= 2:
        rows["ingest"].append({"total": total, **spent})
    for p in range(8):
        q = fresh.images(64)
        t = time.perf_counter(); dep.fairds.nearest_labeled(q); position[p].append(time.perf_counter() - t)
    for _ in range(2):
        q = fresh.images(250)
        spent.clear(); t = time.perf_counter(); dep.lookup(q); total = time.perf_counter() - t
        if r >= 2:
            rows["lookup"].append({"total": total, **spent})

for op, samples in rows.items():
    keys = sorted({k for s in samples for k in s})
    print(op, " ".join(f"{k}={1e3 * st.median(s.get(k, 0.0) for s in samples):.3f}" for k in keys), "ms")
print("nearest(64) by position after ingest:",
      " ".join(f"{1e3 * st.median(p[2:]):.2f}" for p in position), "ms")
print("cache info", dep.fairds.embedding_cache_info())
running.close()
