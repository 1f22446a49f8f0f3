"""Digests of everything a fairDS history leaves behind, for one source tree.

usage: python benchmarks/same_answers.py <tree root>   (e.g. ``.`` and a clone of the parent commit)

Runs ``fit`` + 6 ``ingest`` + 2 ``refresh`` with ``nearest_labeled`` (plain and
thresholded), ``lookup`` and ``certainty`` after every ingest, on flat,
clustered and ivf x float32 / float64, and prints one digest per
combination over the answers, the stored cluster ids / labels / payload bytes
and the per-partition index contents, stored vectors included (doc ids
replaced by store position: they embed a timestamp).  A stored document's
embedding is not digested on its own: the index's rows are the stored
embeddings.  ``nearest_labeled`` distances are digested rounded to 9
decimals, so a change to how the scan rounds (the order of the additions in
``|q|² + |x|² − 2q·x``) does not read as a different answer; its labels, and
every lookup, certainty and index content, are digested exactly.  Two trees
give the same answers when their outputs ``diff`` equal.
"""
import hashlib
import json
import sys

root = sys.argv[1]
sys.path[:0] = [f"{root}/src", f"{root}/tests"]
import numpy as np  # noqa: E402
from repro import FairDS  # noqa: E402
from repro.embedding import PCAEmbedder  # noqa: E402
from test_index_equivalence import contents  # noqa: E402

def scan(rng, n, off=0.0):
    blobs = rng.integers(0, 4, size=n)
    return rng.normal(size=(n, 15, 15)) + 5.0 * blobs[:, None, None] + off, rng.normal(size=(n, 2))

out = {}
for backend, params in [("flat", {}), ("clustered", {}), ("ivf", {"n_partitions": 16, "train_threshold": 200})]:
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(5)
        ds = FairDS(PCAEmbedder(embedding_dim=8), n_clusters=6, seed=3, index_backend=backend,
                    index_params=params, index_dtype=dtype)
        ds.fit(*scan(rng, 600))
        h = hashlib.sha256()
        def note(x):
            h.update(json.dumps(x, sort_keys=True, default=lambda o: o.tolist() if hasattr(o, "tolist") else str(o)).encode())
        for step in range(6):
            ds.ingest(*scan(rng, 120, off=step))
            probe = scan(rng, 64)[0]
            note([(None if l is None else l.tolist(), round(d, 9)) for l, d in ds.nearest_labeled(probe)])
            note([(None if l is None else l.tolist(), round(d, 9)) for l, d in ds.nearest_labeled(probe[:7], threshold=3.0)])
            r = ds.lookup(scan(rng, 50)[0])
            pos = {i: n for n, i in enumerate(ds.collection.ids())}
            note([[pos[i] for i in r.doc_ids], r.labels, r.images, r.retrieved_distribution.pdf])
            note(ds.certainty(probe))
            if step in (2, 4):
                ds.refresh()
        docs = ds.collection.find()
        pos = {d["_id"]: n for n, d in enumerate(docs)}
        note([[d["cluster_id"], d["label"]] for d in docs])
        h.update(b"".join(d["payload"] for d in docs))
        def by_pos(v):
            if isinstance(v, str): return pos.get(v, v)
            if isinstance(v, dict): return {str(by_pos(k)): by_pos(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)): return [by_pos(x) for x in v]
            return v
        note(by_pos(contents(ds._generation.index)))
        out[f"{backend}/{np.dtype(dtype).name}"] = h.hexdigest()[:16]
print(json.dumps(out, indent=1))
