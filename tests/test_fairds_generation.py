"""fairDS's system plane as one published generation.

A (re)fit builds the next generation aside — embedder copy, clusterer,
collection, index, catalog, embedding cache — and publishes it by one
assignment.  The contract tested here:

* **no half-done refresh** — reads beside refreshes and ingests never fail,
  and every answer comes wholly from the one generation it is stamped with;
* **ingest behind refresh** — an ingest that arrives during a refresh waits
  for it and lands in the generation it publishes;
* **the cache belongs to its generation** — an embedding put by a reader of
  generation N is never read by N+1;
* **a failed refresh costs nothing** — wherever it raises, generation N keeps
  answering identically and a plain retry succeeds (also through the
  continual loop's step retry);
* **a live ``n_probe`` retune outlives a refresh**.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.fairds as fairds_module
from repro import Deployment, FairDS, SystemSpec, preset
from repro.datasets import BraggPeakDataset, make_two_phase_schedule
from repro.embedding import PCAEmbedder

SIDE = 5
JOIN_S = 20.0


def _scan(rng, n, offset=0.0):
    blobs = rng.integers(0, 3, size=n)
    images = 0.1 * rng.normal(size=(n, SIDE, SIDE)) + blobs[:, None, None] + offset
    return images, rng.normal(size=(n, 2))


def _fitted(n=150, embedder=None, **kwargs):
    rng = np.random.default_rng(0)
    fairds = FairDS(embedder or PCAEmbedder(embedding_dim=3), n_clusters=3, seed=0, **kwargs)
    images, labels = _scan(rng, n)
    fairds.fit(images, labels)
    return fairds, images, labels, rng


def _join(threads):
    for thread in threads:
        thread.join(JOIN_S)
    assert not any(thread.is_alive() for thread in threads)


# -- (a) reads beside refreshes and ingests ------------------------------------------
def test_reads_beside_refreshes_and_ingests_answer_from_exactly_one_generation():
    # "auto" lets the cluster count differ between generations; float64 makes
    # a stored sample's own query land at distance ~0, not ~1e-4.
    rng = np.random.default_rng(0)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters="auto", max_auto_clusters=6,
                    seed=0, index_dtype=np.float64)
    images, labels = _scan(rng, 150)
    fairds.fit(images, labels)
    probes = [_scan(rng, 12)[0] for _ in range(2)]
    generations = {fairds.generation: (fairds.collection, fairds.n_clusters)}
    stop, errors, results = threading.Event(), [], []

    def guarded(body):
        def run():
            try:
                while not stop.is_set():
                    body()
            except Exception as exc:  # pragma: no cover - the failure this test exists for
                errors.append(exc)
        return threading.Thread(target=run)

    def lookups():
        results.extend(fairds.lookup_batch(probes))

    def nearest():
        start = int(rng.integers(0, 140))
        for (label, distance), own in zip(fairds.nearest_labeled(images[start:start + 8]),
                                          labels[start:start + 8]):
            # A new-embedder query against an old index (or the reverse) cannot do this.
            np.testing.assert_array_equal(label, own)
            assert distance < 1e-6

    ingest_rng = np.random.default_rng(1)

    def ingests():
        fairds.ingest(*_scan(ingest_rng, 5, offset=float(ingest_rng.integers(-3, 3))))

    def refresh_after(scan):
        fairds.ingest(*scan)  # drift: the embedder moves
        fairds.refresh()
        generations[fairds.generation] = (fairds.collection, fairds.n_clusters)

    threads = [guarded(lookups), guarded(lookups), guarded(nearest)]
    opening = _scan(rng, 20, offset=2.0)  # drawn before the nearest thread shares rng
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        # Generation 2 is refreshed beside the readers alone, so its store — and
        # with it its auto-selected cluster count — is the seed's: 4 against
        # generation 1's 3, whatever the racing ingests make of the later ones.
        refresh_after(opening)
        threads.append(guarded(ingests))
        threads[-1].start()
        for step in range(1, 7):
            refresh_after(_scan(rng, 20, offset=2.0 * (step + 1)))
    finally:
        stop.set()
        _join(threads)
        sys.setswitchinterval(interval)

    assert not errors, errors[:3]
    assert sorted(generations) == list(range(1, 9))
    ids = {number: set(coll.ids()) for number, (coll, _) in generations.items()}
    assert sum(len(s) for s in ids.values()) == len(set().union(*ids.values()))  # new per generation
    assert generations[1][1] != generations[2][1]  # the check below can tell them apart
    assert results and {r.generation for r in results} <= set(generations)
    for result in results:
        assert set(result.doc_ids) <= ids[result.generation]
        n_clusters = generations[result.generation][1]
        assert result.retrieved_distribution.n_clusters == n_clusters
        assert result.input_distribution.n_clusters == n_clusters


# -- (b) ingest behind refresh -------------------------------------------------------
def test_an_ingest_that_arrives_during_a_refresh_lands_in_the_generation_it_publishes(monkeypatch):
    fairds, images, labels, rng = _fitted()
    old_coll, entered, release = fairds.collection, threading.Event(), threading.Event()
    detached = fairds.db.detached_collection

    def held_open(name):  # stops the refresh in store.write, inside the writer lock
        entered.set()
        assert release.wait(JOIN_S)
        return detached(name)

    monkeypatch.setattr(fairds.db, "detached_collection", held_open)
    new_images, new_labels = _scan(rng, 30, offset=-9.0)
    ingested = []
    refresher = threading.Thread(target=fairds.refresh)
    ingester = threading.Thread(
        target=lambda: ingested.extend(fairds.ingest(new_images, new_labels)))
    refresher.start()
    assert entered.wait(JOIN_S)
    ingester.start()
    ingester.join(0.1)
    # Waiting, not writing into the collection about to be replaced — and reads go on.
    assert ingester.is_alive() and old_coll.count() == 150 and fairds.generation == 1
    assert len(fairds.lookup(images[:10])) == 10
    release.set()
    _join([refresher, ingester])

    assert fairds.generation == 2 and fairds.collection is not old_coll
    assert old_coll.count() == 150 and fairds.store_size() == 180
    assert len(ingested) == 30 and set(ingested) <= set(fairds.collection.ids())
    # Present in the index and in the catalog alike.
    for (label, distance), own in zip(fairds.nearest_labeled(new_images), new_labels):
        np.testing.assert_array_equal(label, own)
        assert distance < 1e-3
    assert set(ingested) <= set(fairds.lookup(new_images, n_samples=3000).doc_ids)


# -- (c) the cache belongs to its generation -----------------------------------------
class _GatedEmbedder(PCAEmbedder):
    """Counts transformed samples; a thread named ``racer`` stops inside
    ``transform`` until released.  The events are class attributes, so every
    (deep-copied) generation's embedder shares them."""

    name = "gated-pca"
    memoize = True  # PCAEmbedder declares False: its generations would hold no cache to race for
    entered, release = threading.Event(), threading.Event()

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.samples_transformed = 0

    def transform(self, x):
        self.samples_transformed += np.atleast_2d(np.asarray(x)).shape[0]
        if threading.current_thread().name == "racer":
            self.entered.set()
            assert self.release.wait(JOIN_S)
        return super().transform(x)


def test_an_embedding_put_by_a_reader_of_generation_n_is_never_read_by_n_plus_1():
    fairds, images, _, rng = _fitted(embedder=_GatedEmbedder(embedding_dim=3))
    fairds.ingest(*_scan(rng, 30, offset=-9.0))  # so the refresh changes the representation
    probe = _scan(rng, 16)[0]
    old_embedder, answers = fairds.embedder, []
    racer = threading.Thread(
        name="racer", target=lambda: answers.append(fairds.dataset_distribution(probe)))
    racer.start()
    assert _GatedEmbedder.entered.wait(JOIN_S)
    fairds.refresh()  # publishes generation 2 while the racer is inside generation 1's embedder
    _GatedEmbedder.release.set()
    _join([racer])  # ... and its puts land in generation 1's cache

    assert fairds.embedder is not old_embedder and answers[0].n_samples == 16
    seen = fairds.embedder.samples_transformed
    fairds.dataset_distribution(probe)
    info = fairds.embedding_cache_info()
    assert (info["hits"], info["misses"], info["size"]) == (0, 16, 16)
    assert fairds.embedder.samples_transformed == seen + 16


# -- a failed refresh costs nothing --------------------------------------------------
STAGES = ["refresh.read", "embedder.fit", "embedder.transform", "clustering.fit",
          "store.write", "index.build"]


class _Boom(RuntimeError):
    pass


def _fail_once_after(monkeypatch, stage):
    """Make the named stage of the next (re)fit raise as it completes."""
    real, pending = fairds_module.trace_span, [stage]

    @contextmanager
    def trace_span(name, **attributes):
        with real(name, **attributes) as span:
            yield span
        if pending and name == pending[0]:
            pending.pop()
            raise _Boom(name)

    monkeypatch.setattr(fairds_module, "trace_span", trace_span)
    return pending


@pytest.mark.parametrize("stage", STAGES)
def test_a_refresh_that_raises_leaves_the_published_generation_answering(monkeypatch, stage):
    fairds, images, labels, rng = _fitted()
    twin = _fitted()[0]  # same history, never fails: the reference for the next seeded draw
    for store in (fairds, twin):
        store.ingest(*_scan(np.random.default_rng(5), 30, offset=-9.0))
    probe = _scan(rng, 20)[0]
    certainty = fairds.certainty_batch([probe, images[:20]])
    nearest = fairds.nearest_labeled(images[:12])
    coll, embedder = fairds.collection, fairds.embedder

    pending = _fail_once_after(monkeypatch, stage)
    with pytest.raises(_Boom, match=stage):
        fairds.refresh()
    assert not pending

    assert fairds.generation == 1 and fairds.store_size() == 180
    assert fairds.collection is coll and fairds.embedder is embedder
    assert fairds.db.collection_names() == [fairds.collection_name]
    assert fairds.db.collection(fairds.collection_name) is coll
    after, want = fairds.lookup(probe), twin.lookup(probe)
    assert after.generation == 1 and set(after.doc_ids) <= set(coll.ids())
    np.testing.assert_array_equal(after.images, want.images)
    np.testing.assert_array_equal(after.labels, want.labels)
    np.testing.assert_array_equal(after.retrieved_distribution.pdf, want.retrieved_distribution.pdf)
    for (label, distance), (was_label, was_distance) in zip(fairds.nearest_labeled(images[:12]), nearest):
        np.testing.assert_array_equal(label, was_label)
        assert distance == was_distance
    assert fairds.certainty_batch([probe, images[:20]]) == certainty

    fairds.refresh()  # a plain retry
    assert fairds.generation == 2 and fairds.store_size() == 180
    assert fairds.db.collection(fairds.collection_name) is fairds.collection is not coll
    for (label, _), own in zip(fairds.nearest_labeled(images[:12]), labels):
        np.testing.assert_array_equal(label, own)


def test_a_refresh_step_that_fails_once_is_retried_and_the_cycle_promotes(monkeypatch):
    experiment = BraggPeakDataset(make_two_phase_schedule(n_scans=14, change_at=8, seed=0),
                                  peaks_per_scan=60, seed=0)
    spec = preset("continual").to_dict()
    spec["continual"]["step_retries"] = 1
    with Deployment(SystemSpec.from_dict(spec)) as dep:
        dep.fit(*experiment.stacked(range(3)))
        samples = dep.fairds.store_size()
        pending = _fail_once_after(monkeypatch, "store.write")
        report = dep.process_scan(experiment.scan(9).images, run_id="drifted")
        assert not pending  # the fault was hit ...
        assert report.triggered and report.swapped and report.promoted_version == "v1"
        assert dep.snapshot()["store"] == {"samples": samples, "clusters": 6, "generation": 2}


# -- a live n_probe retune outlives a refresh ----------------------------------------
def test_a_live_n_probe_retune_survives_the_next_refresh():
    experiment = BraggPeakDataset(make_two_phase_schedule(n_scans=6, change_at=4, seed=0),
                                  peaks_per_scan=60, seed=0)
    with Deployment.from_preset("ann") as dep:
        dep.fit(*experiment.stacked(range(3)))
        runtime = dep.serve()
        assert runtime.set_knob("n_probe", 7) == 7
        dep.fairds.refresh()
        assert dep.fairds.index_n_probe == 7
        snap = runtime.telemetry_snapshot()
        assert snap["knobs"]["n_probe"]["value"] == snap["index_scan"]["n_probe"] == 7
        hit = runtime.call("lookup_labeled_data", experiment.scan(3).images[:8], timeout=30.0)
        assert hit["generation"] == dep.snapshot()["store"]["generation"] == 2
