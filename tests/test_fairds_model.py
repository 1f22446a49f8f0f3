"""fairDS against a brute-force reference: one stateful property test.

A ``hypothesis`` state machine (QuickCheck's state-machine testing: Claessen &
Hughes, ICFP 2000) runs arbitrary sequences of fit / ingest / refresh /
lookup / ``nearest_labeled`` against fairDS, and checks every answer against
a NumPy reference: the stored (image, label) rows in write order, plus the
generation counter.  The checks:

* ``nearest_labeled`` ≡ a brute-force scan of the reference, embedded by the
  live generation's embedder: the distance within 1e-6 (relative beyond 1)
  and the label one of the rows tied at that distance.  After every step,
  every stored row queried back comes at distance 0;
* every lookup row is a reference (image, label) pair, its document id is
  one of the live generation's, the result names the live generation and
  holds the requested count;
* ``store_size()`` and the collection view's count equal the reference
  length, and the view's labels are the reference's in write order; a
  refresh bumps the generation by exactly one and keeps every sample;
* a twin fairDS with the same seed, driven by the same history, answers
  identically.

It runs on the exact indexes — ``flat``, and ``clustered`` and ``ivf`` probing
every partition (``clustered``'s default ``n_probe=1`` is approximate by
design) — each holding float64 vectors, the setting under which fairDS
documents its distances as exact (float32 adds ~1e-7 of the vectors' norm).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import FairDS
from repro.embedding import PCAEmbedder

SIDE = 4
K = 3
BACKENDS = {
    "flat": {},
    "clustered": {"n_probe": K},
    "ivf": {"n_partitions": K, "n_probe": K, "train_threshold": 12},
}
SEEDS = st.integers(0, 2**16)


def _rows(seed, n):
    """``n`` images in three blobs, and labels drawn apart from them."""
    rng = np.random.default_rng(seed)
    blobs = rng.integers(0, 3, size=n)
    images = rng.normal(size=(n, SIDE, SIDE)) + 4.0 * blobs[:, None, None]
    return images, rng.normal(size=(n, 2))


class FairDSAgainstReference(RuleBasedStateMachine):
    backend = "flat"

    def __init__(self):
        super().__init__()
        self.subjects = [
            FairDS(PCAEmbedder(embedding_dim=3), n_clusters=K, seed=7, index_dtype=np.float64,
                   index_backend=self.backend, index_params=BACKENDS[self.backend])
            for _ in range(2)
        ]
        self.images = np.empty((0, SIDE, SIDE))
        self.labels = np.empty((0, 2))
        self.generation = 0

    def _both(self, call):
        """``call`` on the subject and its twin; the twin must answer alike."""
        answer, twin = (call(subject) for subject in self.subjects)
        return answer, twin

    # -- writers -------------------------------------------------------------------------
    @rule(seed=SEEDS, n=st.integers(K, 24))
    def fit(self, seed, n):
        images, labels = _rows(seed, n)
        self._both(lambda fairds: fairds.fit(images, labels))
        self.images, self.labels = images, labels
        self.generation += 1

    @precondition(lambda self: self.generation)
    @rule(seed=SEEDS, n=st.integers(1, 8), repeat=st.booleans())
    def ingest(self, seed, n, repeat):
        images, labels = _rows(seed, n)
        if repeat:  # stored images again, under new labels: ties for nearest_labeled
            images, labels = self.images[:n].copy(), labels[:len(self.images)]
        ids, twin_ids = self._both(lambda fairds: fairds.ingest(images, labels))
        assert len(ids) == len(twin_ids) == images.shape[0]
        assert set(ids) <= set(self.subjects[0].collection.ids())
        self.images = np.concatenate([self.images, images])
        self.labels = np.concatenate([self.labels, labels])

    @precondition(lambda self: self.generation)
    @rule()
    def refresh(self):
        self._both(lambda fairds: fairds.refresh())
        self.generation += 1

    # -- readers -------------------------------------------------------------------------
    def _check_nearest(self, queries):
        answers, twin = self._both(lambda fairds: fairds.nearest_labeled(queries))
        embedder = self.subjects[0].embedder
        stored = np.asarray(embedder.transform(self.images), dtype=np.float64)
        asked = np.asarray(embedder.transform(queries), dtype=np.float64)
        distances = np.sqrt(((asked[:, None, :] - stored[None, :, :]) ** 2).sum(axis=2))
        assert len(answers) == queries.shape[0]
        for (label, distance), (twin_label, twin_distance), row in zip(answers, twin, distances):
            best = row.min()
            tolerance = 1e-6 * max(1.0, best)
            assert abs(distance - best) <= tolerance
            tied = np.flatnonzero(row <= best + 2 * tolerance)
            assert any(np.array_equal(label, self.labels[i]) for i in tied)
            np.testing.assert_array_equal(label, twin_label)
            assert distance == twin_distance
        return answers

    @precondition(lambda self: self.generation)
    @rule(seed=SEEDS, n=st.integers(1, 6))
    def nearest_labeled(self, seed, n):
        self._check_nearest(_rows(seed, n)[0])

    @precondition(lambda self: self.generation)
    @rule(seed=SEEDS, n=st.integers(1, 6), n_samples=st.integers(1, 12))
    def lookup(self, seed, n, n_samples):
        queries = _rows(seed, n)[0]
        result, twin = self._both(lambda fairds: fairds.lookup(queries, n_samples=n_samples))
        assert result.generation == twin.generation == self.generation
        assert result.images.shape[0] == result.labels.shape[0] == len(result.doc_ids) == n_samples
        assert set(result.doc_ids) <= set(self.subjects[0].collection.ids())
        pairs = {(image.tobytes(), label.tobytes()) for image, label in zip(self.images, self.labels)}
        for image, label in zip(result.images, result.labels):
            assert (image.tobytes(), label.tobytes()) in pairs
        np.testing.assert_array_equal(result.images, twin.images)
        np.testing.assert_array_equal(result.labels, twin.labels)

    # -- the store as a whole ------------------------------------------------------------
    @invariant()
    def the_store_is_the_reference(self):
        for fairds in self.subjects:
            assert fairds.generation == self.generation
            if not self.generation:
                continue
            assert fairds.store_size() == len(self.labels)
            documents = fairds.collection.find()
            assert len(documents) == fairds.collection.count() == len(self.labels)
            np.testing.assert_array_equal([doc["label"] for doc in documents], self.labels)
        if self.generation:
            for _, distance in self._check_nearest(self.images):
                assert distance <= 1e-6


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_fairds_answers_as_the_brute_force_reference(backend):
    machine = type(f"FairDSAgainstReference_{backend}", (FairDSAgainstReference,),
                   {"backend": backend})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=100, stateful_step_count=10, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    ))
