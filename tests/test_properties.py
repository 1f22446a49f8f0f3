"""Property-based tests (hypothesis) on cross-cutting invariants.

These complement the per-module property tests in ``test_utils_stats.py``,
``test_storage.py`` and ``test_clustering.py`` with invariants that span
several components: serialisation round-trips, distribution identities,
sampler guarantees, k-means assignment consistency, and pseudo-Voigt
label recovery.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.distribution import DatasetDistribution
from repro.clustering.fuzzy import membership_matrix
from repro.clustering.kmeans import KMeans
from repro.dataio.sampler import WeightedClusterSampler, cluster_members
from repro.utils.rng import default_rng
from repro.labeling.peak_fitting import intensity_centroid
from repro.labeling.pseudo_voigt import PeakParameters, pseudo_voigt_2d
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Sequential
from repro.storage.codecs import CompressedCodec, PickleCodec, RawArrayCodec
from repro.utils.stats import jensen_shannon_divergence, normalize_distribution


# ---------------------------------------------------------------------------------
# Model serialisation
# ---------------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    in_dim=st.integers(1, 8),
    hidden=st.integers(1, 12),
    out_dim=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_model_bytes_roundtrip_preserves_predictions(in_dim, hidden, out_dim, seed):
    model = Sequential(
        [Dense(in_dim, hidden, seed=seed, name="a"), ReLU(), Dense(hidden, out_dim, seed=seed + 1, name="b")]
    )
    restored = Sequential.from_bytes(model.to_bytes())
    x = np.random.default_rng(seed).normal(size=(5, in_dim))
    np.testing.assert_allclose(model.forward(x), restored.forward(x), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 1000),
    dtype=st.sampled_from([np.float64, np.float32, np.int32, np.uint16]),
)
def test_codecs_preserve_dtype_and_values(shape, seed, dtype):
    rng = np.random.default_rng(seed)
    arr = (rng.normal(size=shape) * 100).astype(dtype)
    for codec in (PickleCodec(), CompressedCodec(), RawArrayCodec()):
        out = codec.decode(codec.encode(arr))
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)


# ---------------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    ids=st.lists(st.integers(0, 7), min_size=1, max_size=200),
)
def test_dataset_distribution_pdf_properties(ids):
    dist = DatasetDistribution.from_cluster_ids(ids, n_clusters=8)
    assert dist.pdf.shape == (8,)
    assert dist.pdf.sum() == pytest.approx(1.0)
    assert np.all(dist.pdf >= 0)
    assert dist.n_samples == len(ids)
    # Self-distance is zero; distance to a permuted copy of itself is zero too.
    assert dist.distance(dist) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    # Subnormal entries (e.g. 5e-324) can underflow to exactly zero when
    # rescaled, which legitimately changes the distribution's support and
    # breaks the invariant being tested.
    p=arrays(np.float64, 6, elements=st.floats(0.0, 10.0, allow_subnormal=False)),
    scale=st.floats(0.1, 50.0),
)
def test_jsd_invariant_to_rescaling(p, scale):
    assume(p.sum() > 0)
    q = p * scale
    assume(np.all(q[p > 0] > 0))  # rescaling must not underflow the support
    assert jensen_shannon_divergence(p, q) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------------
# Weighted cluster sampler
# ---------------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    n_clusters=st.integers(2, 6),
    n_samples=st.integers(1, 300),
    seed=st.integers(0, 100),
)
def test_weighted_sampler_always_returns_requested_count(n_clusters, n_samples, seed):
    rng = np.random.default_rng(seed)
    cluster_ids = rng.integers(0, n_clusters, size=200)
    pdf = normalize_distribution(rng.random(n_clusters))
    sampler = WeightedClusterSampler(cluster_ids, pdf, n_samples=n_samples, seed=seed)
    drawn = list(sampler)
    assert len(drawn) == n_samples
    assert all(0 <= i < 200 for i in drawn)


def _draw_scanning_every_cluster(cluster_ids, pdf, n_samples, seed):
    """The sampler's draw as first written — ``np.unique`` plus one
    ``nonzero`` pass per cluster on every draw — kept as the reference the
    precomputed-membership path must reproduce bit for bit."""
    rng = default_rng(seed)
    raw = pdf * n_samples
    counts = np.floor(raw).astype(int)
    remainder = n_samples - counts.sum()
    if remainder > 0:
        counts[np.argsort(-(raw - counts))[:remainder]] += 1
    members_by_cluster = {int(c): np.nonzero(cluster_ids == c)[0] for c in np.unique(cluster_ids)}
    nonempty = [c for c, members in members_by_cluster.items() if members.size > 0]
    chosen = []
    for cluster, want in enumerate(counts):
        if want == 0:
            continue
        members = members_by_cluster.get(cluster)
        if members is None or members.size == 0:
            members = members_by_cluster[nonempty[int(rng.integers(0, len(nonempty)))]]
        chosen.extend(rng.choice(members, size=want, replace=want > members.size).tolist())
    rng.shuffle(chosen)
    return chosen


@settings(max_examples=50, deadline=None)
@given(
    n_clusters=st.integers(1, 6),
    present=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    store=st.integers(1, 120),
    n_samples=st.integers(1, 300),
    seed=st.integers(0, 10_000),
    shuffle_keys=st.booleans(),
)
def test_weighted_sampler_draws_are_unchanged_by_precomputed_membership(
    n_clusters, present, store, n_samples, seed, shuffle_keys
):
    """Some clusters of the PDF have no members (donor branch), some draws
    exceed their cluster (with replacement); the membership mapping may come
    in any key order."""
    rng = np.random.default_rng(seed)
    present = [c for c in present if c < n_clusters] or [0]
    cluster_ids = rng.choice(present, size=store)
    pdf = normalize_distribution(rng.random(n_clusters) + 1e-3)
    expected = _draw_scanning_every_cluster(cluster_ids, pdf, n_samples, seed)

    members = cluster_members(cluster_ids)
    assert list(members) == sorted(set(cluster_ids.tolist()))
    for c, rows in members.items():
        np.testing.assert_array_equal(rows, np.nonzero(cluster_ids == c)[0])
    assert list(WeightedClusterSampler(cluster_ids, pdf, n_samples, seed=seed)) == expected

    if shuffle_keys:
        members = {c: members[c] for c in rng.permutation(list(members)).tolist()}
    sampler = WeightedClusterSampler(
        cluster_ids, pdf, n_samples, seed=seed, members_by_cluster=members
    )
    assert list(sampler) == expected


# ---------------------------------------------------------------------------------
# K-means / fuzzy memberships
# ---------------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), k=st.integers(2, 5))
def test_kmeans_predict_assigns_nearest_center(seed, k):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 3))
    km = KMeans(n_clusters=k, n_init=1, seed=seed).fit(x)
    query = rng.normal(size=(10, 3))
    labels = km.predict(query)
    distances = km.transform(query)
    np.testing.assert_array_equal(labels, np.argmin(distances, axis=1))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), m=st.floats(1.2, 3.0))
def test_fuzzy_membership_rows_are_distributions(seed, m):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(20, 4))
    centers = rng.normal(size=(5, 4))
    u = membership_matrix(x, centers, m=m)
    assert np.all(u >= -1e-12) and np.all(u <= 1 + 1e-12)
    np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------------
# Pseudo-Voigt generation / labeling consistency
# ---------------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    row=st.floats(4.0, 10.0),
    col=st.floats(4.0, 10.0),
    sigma=st.floats(1.0, 3.0),
    eta=st.floats(0.0, 1.0),
)
def test_centroid_tracks_true_center_for_clean_peaks(row, col, sigma, eta):
    params = PeakParameters(center_row=row, center_col=col, amplitude=1.0,
                            sigma_row=sigma, sigma_col=sigma, eta=eta)
    img = pseudo_voigt_2d((15, 15), params)
    r, c = intensity_centroid(img)
    # The centroid of a clean symmetric peak is biased toward the patch centre
    # when the peak sits near the edge, but stays within ~1 px of the truth in
    # the generator's operating range.
    assert abs(r - row) < 1.0
    assert abs(c - col) < 1.0


@settings(max_examples=25, deadline=None)
@given(
    amplitude=st.floats(0.2, 5.0),
    background=st.floats(0.0, 0.5),
)
def test_pseudo_voigt_peak_height_and_background(amplitude, background):
    params = PeakParameters(center_row=7.0, center_col=7.0, amplitude=amplitude,
                            background=background)
    img = pseudo_voigt_2d((15, 15), params)
    assert img.max() == pytest.approx(background + amplitude, rel=1e-6)
    assert img.min() >= background - 1e-12
