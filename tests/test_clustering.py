"""Tests for k-means, fuzzy c-means, the elbow method, and clustering metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clustering.elbow import detect_elbow, elbow_curve, select_k_elbow
from repro.clustering.fuzzy import FuzzyCMeans, assignment_certainty, membership_matrix
from repro.clustering.kmeans import KMeans
from repro.clustering.metrics import silhouette_score, within_cluster_ss
from repro.utils.errors import NotFittedError, ValidationError


def _blobs(n_per=50, centers=((0, 0), (10, 10), (-10, 10)), spread=1.0, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    labels = []
    for i, c in enumerate(centers):
        data.append(np.asarray(c) + spread * rng.normal(size=(n_per, len(c))))
        labels.extend([i] * n_per)
    return np.vstack(data), np.array(labels)


# -- KMeans --------------------------------------------------------------------
def test_kmeans_recovers_separated_blobs():
    x, truth = _blobs()
    km = KMeans(n_clusters=3, seed=0).fit(x)
    labels = km.labels_
    # Each true blob should be assigned (almost) entirely to one cluster.
    for t in range(3):
        counts = np.bincount(labels[truth == t], minlength=3)
        assert counts.max() / counts.sum() > 0.98
    assert km.inertia_ is not None and km.inertia_ > 0
    assert km.n_iter_ >= 1


def test_kmeans_predict_matches_fit_labels():
    x, _ = _blobs()
    km = KMeans(n_clusters=3, seed=0).fit(x)
    np.testing.assert_array_equal(km.predict(x), km.labels_)


def test_kmeans_transform_shape_and_nonnegative():
    x, _ = _blobs(n_per=20)
    km = KMeans(n_clusters=3, seed=0).fit(x)
    d = km.transform(x)
    assert d.shape == (60, 3)
    assert np.all(d >= 0)


def test_kmeans_cluster_pdf_sums_to_one():
    x, _ = _blobs(n_per=30)
    km = KMeans(n_clusters=3, seed=0).fit(x)
    pdf = km.cluster_pdf(x)
    assert pdf.shape == (3,)
    assert pdf.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(np.sort(pdf), [1 / 3] * 3, atol=0.05)


def test_kmeans_handles_more_clusters_than_distinct_points():
    x = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
    km = KMeans(n_clusters=3, seed=0).fit(x)
    assert km.cluster_centers_.shape == (3, 2)


def test_kmeans_validation():
    with pytest.raises(ValidationError):
        KMeans(n_clusters=0)
    with pytest.raises(ValidationError):
        KMeans(max_iter=0)
    with pytest.raises(ValidationError):
        KMeans(tol=-1)
    with pytest.raises(ValidationError):
        KMeans(n_clusters=5).fit(np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        KMeans().fit(np.zeros(10))
    with pytest.raises(NotFittedError):
        KMeans().predict(np.zeros((2, 2)))
    km = KMeans(n_clusters=2, seed=0).fit(np.random.default_rng(0).normal(size=(10, 3)))
    with pytest.raises(ValidationError):
        km.predict(np.zeros((2, 5)))


def test_kmeans_deterministic_for_seed():
    x, _ = _blobs(n_per=20)
    a = KMeans(n_clusters=3, seed=7).fit(x)
    b = KMeans(n_clusters=3, seed=7).fit(x)
    np.testing.assert_allclose(a.cluster_centers_, b.cluster_centers_)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100))
def test_kmeans_inertia_decreases_with_k_property(seed):
    x = np.random.default_rng(seed).normal(size=(60, 4))
    i2 = KMeans(n_clusters=2, seed=0, n_init=2).fit(x).inertia_
    i6 = KMeans(n_clusters=6, seed=0, n_init=2).fit(x).inertia_
    assert i6 <= i2 + 1e-9


# -- fuzzy c-means -------------------------------------------------------------------
def test_membership_matrix_rows_sum_to_one():
    x, _ = _blobs(n_per=10)
    centers = np.array([[0, 0], [10, 10], [-10, 10]], dtype=float)
    u = membership_matrix(x, centers)
    assert u.shape == (30, 3)
    np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)
    assert np.all((u >= 0) & (u <= 1))


def test_membership_at_center_is_one():
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    u = membership_matrix(np.array([[0.0, 0.0]]), centers)
    assert u[0, 0] == pytest.approx(1.0)
    assert u[0, 1] == pytest.approx(0.0)


def test_membership_invalid_fuzzifier():
    with pytest.raises(ValidationError):
        membership_matrix(np.zeros((2, 2)), np.zeros((2, 2)), m=1.0)


def test_assignment_certainty_high_for_tight_clusters_low_for_drifted():
    x, _ = _blobs(spread=0.5)
    centers = np.array([[0, 0], [10, 10], [-10, 10]], dtype=float)
    tight = assignment_certainty(x, centers)
    drifted = assignment_certainty(x + 5.0, centers)  # shift all data between centres
    assert tight > 95.0
    assert drifted < tight


def test_assignment_certainty_validation():
    with pytest.raises(ValidationError):
        assignment_certainty(np.zeros((2, 2)), np.zeros((2, 2)), confidence=1.5)


def test_fuzzy_cmeans_fit_and_certainty():
    x, truth = _blobs(n_per=30, spread=0.8)
    fcm = FuzzyCMeans(n_clusters=3, seed=0).fit(x)
    assert fcm.cluster_centers_.shape == (3, 2)
    hard = fcm.predict(x)
    # Cluster labels are arbitrary, but each true blob maps to a single cluster.
    for t in range(3):
        counts = np.bincount(hard[truth == t], minlength=3)
        assert counts.max() / counts.sum() > 0.9
    assert fcm.certainty(x) > 80.0


def test_fuzzy_cmeans_validation():
    with pytest.raises(ValidationError):
        FuzzyCMeans(n_clusters=0)
    with pytest.raises(ValidationError):
        FuzzyCMeans(m=1.0)
    with pytest.raises(NotFittedError):
        FuzzyCMeans().predict(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        FuzzyCMeans(n_clusters=5).fit(np.zeros((2, 2)))


# -- elbow ---------------------------------------------------------------------------
def test_elbow_curve_monotone_decreasing():
    x, _ = _blobs(n_per=40)
    curve = elbow_curve(x, range(1, 7), seed=0)
    ks = sorted(curve)
    wss = [curve[k] for k in ks]
    assert all(wss[i] >= wss[i + 1] - 1e-6 for i in range(len(wss) - 1))


def test_select_k_elbow_finds_true_cluster_count():
    x, _ = _blobs(n_per=40, spread=0.8)
    best_k, curve = select_k_elbow(x, k_min=1, k_max=8, seed=0)
    assert best_k == 3
    assert set(curve) == set(range(1, 9))


def test_detect_elbow_synthetic_knee():
    # WSS drops sharply until k=4, then flattens.
    curve = {1: 100.0, 2: 60.0, 3: 30.0, 4: 10.0, 5: 9.0, 6: 8.5, 7: 8.2}
    assert detect_elbow(curve) == 4


def test_elbow_validation():
    x = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValidationError):
        elbow_curve(x, [])
    with pytest.raises(ValidationError):
        elbow_curve(x, [0, 2])
    with pytest.raises(ValidationError):
        elbow_curve(x, [20])
    with pytest.raises(ValidationError):
        select_k_elbow(x, k_min=5, k_max=2)


# -- metrics -----------------------------------------------------------------------------
def test_within_cluster_ss_matches_kmeans_inertia():
    x, _ = _blobs(n_per=25)
    km = KMeans(n_clusters=3, seed=0).fit(x)
    wss = within_cluster_ss(x, km.labels_, km.cluster_centers_)
    assert wss == pytest.approx(km.inertia_, rel=1e-6)


def test_within_cluster_ss_validation():
    with pytest.raises(ValidationError):
        within_cluster_ss(np.zeros((3, 2)), np.zeros(2, dtype=int), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        within_cluster_ss(np.zeros((3, 2)), np.array([0, 1, 5]), np.zeros((2, 2)))


def test_silhouette_score_high_for_separated_blobs():
    x, truth = _blobs(n_per=20, spread=0.5)
    assert silhouette_score(x, truth) > 0.8


def test_silhouette_score_low_for_random_labels():
    x, _ = _blobs(n_per=20)
    rng = np.random.default_rng(0)
    random_labels = rng.integers(0, 3, size=x.shape[0])
    assert silhouette_score(x, random_labels) < 0.2


def test_silhouette_requires_two_clusters():
    with pytest.raises(ValidationError):
        silhouette_score(np.zeros((5, 2)), np.zeros(5, dtype=int))


# -- KMeans: the Lloyd loop against the loop it replaced ---------------------------
def _masked_mean_kmeans(x, n_clusters, max_iter=100, tol=1e-6, n_init=3, seed=0):
    """``KMeans.fit`` as it was before the column-wise loop, kept as the
    reference: row-major distances, ``argmin`` per row, one boolean-mask mean
    per cluster.  Same k-means++ and the same RNG stream.  Also returns how
    often an empty cluster was re-seeded."""
    from repro.utils.rng import default_rng
    from repro.utils.stats import pairwise_squared_distances

    rng = default_rng(seed)
    best, reseeded = None, 0
    for _ in range(n_init):
        centers = KMeans._kmeanspp_init(x, n_clusters, rng)
        prev_inertia = np.inf
        run = None
        for iteration in range(1, max_iter + 1):
            d2 = pairwise_squared_distances(x, centers)
            labels = np.argmin(d2, axis=1)
            inertia = float(d2[np.arange(x.shape[0]), labels].sum())
            for k in range(n_clusters):
                members = x[labels == k]
                if members.size:
                    centers[k] = members.mean(axis=0)
                else:
                    reseeded += 1
                    centers[k] = x[np.argmax(d2.min(axis=1))]
            if abs(prev_inertia - inertia) <= tol:
                run = (centers, labels, inertia, iteration)
                break
            prev_inertia = inertia
        assert run is not None, "reference did not converge; pick an easier case"
        if best is None or run[2] < best[2]:
            best = run
    return best + (reseeded,)


@pytest.mark.parametrize(
    "n, d, k, seed",
    [(60, 2, 3, 0), (300, 2, 4, 1), (500, 8, 8, 2), (1000, 3, 5, 3), (257, 16, 6, 4), (40, 5, 1, 5)],
)
def test_kmeans_matches_the_masked_mean_loop_it_replaced(n, d, k, seed):
    rng = np.random.default_rng(100 + seed)
    blob_centers = 8.0 * rng.normal(size=(k, d))
    x = blob_centers[rng.integers(0, k, size=n)] + rng.normal(size=(n, d))
    centers, labels, inertia, n_iter, _ = _masked_mean_kmeans(x, k, seed=seed)
    km = KMeans(n_clusters=k, seed=seed).fit(x)
    np.testing.assert_array_equal(km.labels_, labels)
    np.testing.assert_allclose(km.cluster_centers_, centers, rtol=0, atol=1e-9)
    assert km.inertia_ == pytest.approx(inertia, rel=1e-9)
    assert km.n_iter_ == n_iter


def test_kmeans_reseeds_an_empty_cluster_like_the_loop_it_replaced():
    # Four distinct points, six clusters: k-means++ must repeat a point, the
    # repeat loses every tie to the first copy, and its cluster starts empty.
    points = np.array([[0.0, 0.0], [5.0, 1.0], [-3.0, 4.0], [2.0, -6.0]])
    x = np.repeat(points, 10, axis=0)
    centers, labels, inertia, n_iter, reseeded = _masked_mean_kmeans(x, 6, seed=3)
    assert reseeded > 0
    km = KMeans(n_clusters=6, seed=3).fit(x)
    np.testing.assert_array_equal(km.labels_, labels)
    np.testing.assert_allclose(km.cluster_centers_, centers, rtol=0, atol=1e-9)
    assert km.inertia_ == pytest.approx(inertia, abs=1e-9)
    assert km.n_iter_ == n_iter


@pytest.mark.parametrize("max_iter", [1, 2, 5])
def test_kmeans_labels_and_inertia_describe_the_returned_centres_at_max_iter(max_iter):
    # Stopped by max_iter, the centres have moved since the last assignment
    # inside the loop; fairDS stores labels_ but answers lookups with predict.
    x = np.random.default_rng(0).normal(size=(2000, 8))
    km = KMeans(n_clusters=8, max_iter=max_iter, n_init=1, seed=0).fit(x)
    assert km.n_iter_ == max_iter
    np.testing.assert_array_equal(km.labels_, km.predict(x))
    residual = x - km.cluster_centers_[km.labels_]
    assert km.inertia_ == pytest.approx(float(np.sum(residual * residual)), rel=1e-9)


# -- KMeans: the warm start ----------------------------------------------------------
def test_kmeans_fit_from_init_is_one_lloyd_run_that_uses_no_rng_and_keeps_cluster_order():
    x, _ = _blobs(n_per=80)
    cold = KMeans(n_clusters=3, seed=0).fit(x)
    init = cold.cluster_centers_[::-1].copy()
    given_init = init.copy()
    warm = [KMeans(n_clusters=3, seed=seed).fit(x, init=init) for seed in (1, 2)]
    np.testing.assert_array_equal(init, given_init)  # the caller's array is not moved
    for km in warm:
        # Already converged: one pass to see it, one to confirm; no seeding.
        assert km.n_iter_ <= 2
        # Cluster i is the cluster that grew from init[i].
        np.testing.assert_array_equal(km.labels_, 2 - cold.labels_)
        np.testing.assert_allclose(km.cluster_centers_, given_init, atol=1e-9)
        assert km.inertia_ == pytest.approx(cold.inertia_, rel=1e-12)
        np.testing.assert_array_equal(km.labels_, km.predict(x))
    np.testing.assert_array_equal(warm[0].cluster_centers_, warm[1].cluster_centers_)
    for bad in (init[:2], init[:, :1], init.ravel()):
        with pytest.raises(ValidationError, match="init must have shape"):
            KMeans(n_clusters=3).fit(x, init=bad)


@given(
    k=st.integers(2, 8),
    d=st.integers(3, 8),
    shift=st.floats(0.0, 4.0),
    appended=st.floats(0.0, 0.5),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_warm_started_inertia_is_within_5_percent_of_the_cold_fit_on_drifting_blobs(
    k, d, shift, appended, seed
):
    """What fairDS's refresh does, on blobs that drift: new samples arrive
    ``shift`` (in blob widths) off their blobs, every sample has the cluster
    id the old fit gave it, and Lloyd starts from the per-cluster means of
    the *current* data grouped by those ids.  Blobs sit on distinct corners
    of a cube, ten widths apart, so the partition to find is unambiguous —
    given that the old fit found it, the warm start must not do worse than
    three fresh k-means++ starts by more than 5 %, and must keep the ids."""
    rng = np.random.default_rng(seed)
    corners = rng.choice(2**d, size=k, replace=False)
    centres = 10.0 * ((corners[:, None] >> np.arange(d)) & 1)
    x0 = np.repeat(centres, 40, axis=0) + rng.normal(size=(40 * k, d))
    old = KMeans(n_clusters=k, seed=seed).fit(x0)
    assume(len(set(old.predict(centres))) == k)  # the old fit separated the blobs
    direction = rng.normal(size=d)
    direction *= shift / np.linalg.norm(direction)
    n_new = int(appended * len(x0))
    new = centres[rng.integers(0, k, size=n_new)] + rng.normal(size=(n_new, d)) + direction
    x = np.vstack([x0, new])
    carried = np.concatenate([old.labels_, old.predict(new)])
    init = np.stack([x[carried == c].mean(axis=0) for c in range(k)])

    warm = KMeans(n_clusters=k, seed=seed).fit(x, init=init)
    cold = KMeans(n_clusters=k, n_init=3, seed=seed).fit(x)
    assert warm.inertia_ <= 1.05 * cold.inertia_
    assert np.mean(warm.labels_ == carried) >= 0.95
