"""Tests for the Dataset/Sampler/DataLoader substrate and transforms."""

import numpy as np
import pytest

from repro.dataio.dataloader import DataLoader
from repro.dataio.dataset import (
    ArrayDataset,
    DocumentDBDataset,
    FileStoreDataset,
    TransformDataset,
)
from repro.dataio.sampler import (
    BatchSampler,
    RandomSampler,
    SequentialSampler,
    WeightedClusterSampler,
    cluster_members,
)
from repro.dataio.transforms import (
    add_gaussian_noise,
    bragg_augmentation,
    normalize_unit,
    random_flip,
    random_rotate90,
)
from repro.storage.codecs import get_codec
from repro.storage.documentdb import DocumentDB
from repro.storage.file_store import FileStore
from repro.utils.errors import ConfigurationError, ValidationError


def _array_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    y = rng.normal(size=(n, 2))
    return ArrayDataset(x, y), x, y


# -- datasets -----------------------------------------------------------------
def test_array_dataset_indexing_and_batch():
    ds, x, y = _array_dataset()
    assert len(ds) == 40
    xi, yi = ds[3]
    np.testing.assert_array_equal(xi, x[3])
    bx, by = ds.fetch_batch([0, 5, 7])
    np.testing.assert_array_equal(bx, x[[0, 5, 7]])
    np.testing.assert_array_equal(by, y[[0, 5, 7]])


def test_array_dataset_validation():
    with pytest.raises(ValidationError):
        ArrayDataset(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValidationError):
        ArrayDataset(np.zeros((0, 2)), np.zeros((0, 2)))


def test_documentdb_dataset_fetch(rng):
    db = DocumentDB(codec=get_codec("blosc"))
    coll = db.collection("samples")
    payloads = [rng.normal(size=(4, 4)) for _ in range(10)]
    metas = [{"label": [float(i), float(i + 1)]} for i in range(10)]
    coll.insert_many(metas, payloads)
    ds = DocumentDBDataset(coll)
    assert len(ds) == 10
    x0, y0 = ds[0]
    assert x0.shape == (4, 4)
    assert y0.shape == (2,)
    bx, by = ds.fetch_batch([1, 3])
    assert bx.shape == (2, 4, 4)
    assert by.shape == (2, 2)


def test_documentdb_dataset_empty_collection():
    db = DocumentDB()
    with pytest.raises(ValidationError):
        DocumentDBDataset(db.collection("empty"))


def test_file_store_dataset(rng):
    with FileStore() as store:
        arrays = [rng.normal(size=(3, 3)) for _ in range(6)]
        store.write_many(arrays)
        labels = rng.normal(size=(6, 2))
        ds = FileStoreDataset(store, labels)
        assert len(ds) == 6
        x2, y2 = ds[2]
        np.testing.assert_allclose(x2, arrays[2])
        np.testing.assert_allclose(y2, labels[2])


def test_file_store_dataset_validation(rng):
    with FileStore() as store:
        with pytest.raises(ValidationError):
            FileStoreDataset(store, np.zeros((2, 1)))
        store.write(rng.normal(size=(2,)))
        with pytest.raises(ValidationError):
            FileStoreDataset(store, np.zeros((5, 1)))


def test_transform_dataset_applies_function():
    ds, x, _ = _array_dataset()
    doubled = TransformDataset(ds, lambda a: a * 2)
    np.testing.assert_array_equal(doubled[1][0], x[1] * 2)
    assert len(doubled) == len(ds)


# -- samplers ------------------------------------------------------------------------
def test_sequential_sampler():
    assert list(SequentialSampler(5)) == [0, 1, 2, 3, 4]
    assert len(SequentialSampler(5)) == 5
    with pytest.raises(ValidationError):
        SequentialSampler(0)


def test_random_sampler_is_permutation_and_reshuffles():
    sampler = RandomSampler(20, seed=0)
    a = list(sampler)
    b = list(sampler)
    assert sorted(a) == list(range(20))
    assert sorted(b) == list(range(20))
    assert a != b  # reshuffled between epochs (overwhelmingly likely)


def test_weighted_cluster_sampler_matches_target_pdf():
    cluster_ids = np.repeat(np.arange(4), 100)
    target = [0.7, 0.1, 0.1, 0.1]
    sampler = WeightedClusterSampler(cluster_ids, target, n_samples=400, seed=0)
    drawn = list(sampler)
    assert len(drawn) == 400
    counts = np.bincount(cluster_ids[drawn], minlength=4) / 400
    np.testing.assert_allclose(counts, target, atol=0.01)


def test_weighted_cluster_sampler_handles_empty_cluster():
    cluster_ids = np.array([0] * 50 + [2] * 50)  # cluster 1 has no members
    sampler = WeightedClusterSampler(cluster_ids, [0.4, 0.3, 0.3], n_samples=100, seed=0)
    drawn = list(sampler)
    assert len(drawn) == 100  # size preserved despite the empty cluster


def test_weighted_cluster_sampler_validation():
    with pytest.raises(ValidationError):
        WeightedClusterSampler([], [1.0], 10)
    with pytest.raises(ValidationError):
        WeightedClusterSampler([0, 5], [0.5, 0.5], 10)
    with pytest.raises(ValidationError):
        WeightedClusterSampler([0, 1], [0.5, 0.5], 0)


def test_weighted_cluster_sampler_with_precomputed_membership_skips_the_scan():
    """Given the membership, the candidate column is checked for shape only —
    its values are never read — and a cluster id beyond the PDF is caught from
    the mapping's keys."""
    cluster_ids = np.arange(30) % 3
    members = cluster_members(cluster_ids)
    pdf = [0.5, 0.25, 0.25]
    unread = np.full(30, 99)  # would fail the range check if it were scanned
    drawn = list(WeightedClusterSampler(unread, pdf, 12, seed=3, members_by_cluster=members))
    assert drawn == list(WeightedClusterSampler(cluster_ids, pdf, 12, seed=3))
    with pytest.raises(ValidationError):
        WeightedClusterSampler(cluster_ids, [0.5, 0.5], 12, members_by_cluster=members)


def test_batch_sampler_grouping_and_drop_last():
    base = SequentialSampler(10)
    batches = list(BatchSampler(base, 4))
    assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert len(BatchSampler(base, 4)) == 3
    dropped = list(BatchSampler(base, 4, drop_last=True))
    assert dropped == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert len(BatchSampler(base, 4, drop_last=True)) == 2
    with pytest.raises(ValidationError):
        BatchSampler(base, 0)


# -- DataLoader -------------------------------------------------------------------------
def test_dataloader_serial_covers_all_samples():
    ds, x, y = _array_dataset(23)
    loader = DataLoader(ds, batch_size=5)
    seen = 0
    for bx, by in loader:
        assert bx.shape[0] == by.shape[0]
        seen += bx.shape[0]
    assert seen == 23
    assert len(loader) == 5


def test_dataloader_shuffle_changes_order_but_not_content():
    ds, x, _ = _array_dataset(16)
    plain = np.concatenate([bx for bx, _ in DataLoader(ds, batch_size=4)])
    shuffled = np.concatenate([bx for bx, _ in DataLoader(ds, batch_size=4, shuffle=True, seed=0)])
    assert not np.array_equal(plain, shuffled)
    np.testing.assert_allclose(np.sort(plain, axis=0), np.sort(shuffled, axis=0))


def test_dataloader_workers_match_serial_results():
    ds, x, y = _array_dataset(50)
    serial = list(DataLoader(ds, batch_size=8))
    parallel = list(DataLoader(ds, batch_size=8, num_workers=4))
    assert len(serial) == len(parallel)
    for (sx, sy), (px, py) in zip(serial, parallel):
        np.testing.assert_array_equal(sx, px)
        np.testing.assert_array_equal(sy, py)


def test_dataloader_drop_last():
    ds, _, _ = _array_dataset(10)
    loader = DataLoader(ds, batch_size=4, drop_last=True)
    batches = list(loader)
    assert len(batches) == 2
    assert all(bx.shape[0] == 4 for bx, _ in batches)


def test_dataloader_with_custom_sampler():
    ds, _, _ = _array_dataset(30)
    cluster_ids = np.arange(30) % 3
    sampler = WeightedClusterSampler(cluster_ids, [1.0, 0.0, 0.0], n_samples=12, seed=0)
    loader = DataLoader(ds, batch_size=4, sampler=sampler)
    total = sum(bx.shape[0] for bx, _ in loader)
    assert total == 12


def test_dataloader_worker_error_propagates():
    class BrokenDataset(ArrayDataset):
        def fetch_batch(self, indices):
            raise RuntimeError("boom")

    ds = BrokenDataset(np.zeros((8, 2)), np.zeros((8, 1)))
    loader = DataLoader(ds, batch_size=4, num_workers=2)
    with pytest.raises(RuntimeError, match="boom"):
        list(loader)


def test_dataloader_validation():
    ds, _, _ = _array_dataset(5)
    with pytest.raises(ConfigurationError):
        DataLoader(ds, batch_size=0)
    with pytest.raises(ConfigurationError):
        DataLoader(ds, batch_size=2, num_workers=-1)
    with pytest.raises(ConfigurationError):
        DataLoader(ds, batch_size=2, prefetch_factor=0)


def test_dataloader_as_epoch_callable_works_with_trainer():
    from repro.nn.layers import Dense
    from repro.nn.network import Sequential
    from repro.nn.trainer import Trainer, TrainingConfig

    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 4))
    y = x @ rng.normal(size=(4, 1))
    loader = DataLoader(ArrayDataset(x, y), batch_size=16, shuffle=True, seed=0)
    model = Sequential([Dense(4, 1, seed=0)])
    hist = Trainer(model).fit(loader.as_epoch_callable(), val=(x, y),
                              config=TrainingConfig(epochs=10, lr=0.05, seed=0))
    assert hist.val_loss[-1] < hist.val_loss[0]


def test_dataloader_reads_from_documentdb_with_workers(rng):
    db = DocumentDB(codec=get_codec("pickle"))
    coll = db.collection("samples")
    payloads = [rng.normal(size=(5, 5)) for _ in range(30)]
    coll.insert_many([{"label": [float(i)]} for i in range(30)], payloads)
    ds = DocumentDBDataset(coll)
    loader = DataLoader(ds, batch_size=8, num_workers=3)
    total = sum(bx.shape[0] for bx, _ in loader)
    assert total == 30


# -- transforms ----------------------------------------------------------------------------
def test_normalize_unit_range():
    x = np.array([[2.0, 4.0], [6.0, 10.0]])
    out = normalize_unit(x)
    assert out.min() == 0.0 and out.max() == 1.0
    np.testing.assert_array_equal(normalize_unit(np.full((3, 3), 7.0)), 0.0)


def test_add_gaussian_noise_changes_values(rng):
    x = np.zeros((10, 10))
    noisy = add_gaussian_noise(x, sigma=0.1, rng=rng)
    assert noisy.std() > 0


def test_random_rotate90_preserves_content(rng):
    x = rng.normal(size=(6, 6))
    rotated = random_rotate90(x, rng)
    assert sorted(rotated.ravel()) == pytest.approx(sorted(x.ravel()))
    with pytest.raises(ValueError):
        random_rotate90(np.zeros(3), rng)


def test_random_flip_preserves_content(rng):
    x = rng.normal(size=(4, 5))
    flipped = random_flip(x, rng)
    assert sorted(flipped.ravel()) == pytest.approx(sorted(x.ravel()))
    with pytest.raises(ValueError):
        random_flip(np.zeros(3), rng)


def test_bragg_augmentation_shapes(rng):
    flat = rng.random((6, 225))
    out = bragg_augmentation(flat, rng)
    assert out.shape == flat.shape
    imgs = rng.random((4, 15, 15))
    out_img = bragg_augmentation(imgs, rng)
    assert out_img.shape == imgs.shape
    # Non-square flattened input falls back to noise-only augmentation.
    odd = rng.random((3, 10))
    assert bragg_augmentation(odd, rng).shape == odd.shape
