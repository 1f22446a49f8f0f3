"""Tests for the embedding service (interface, registry, and all embedders)."""

import numpy as np
import pytest

from repro.api.registry import create_component, register_component, unregister_component
from repro.datasets.bragg import generate_bragg_scan
from repro.datasets.drift import ExperimentCondition
from repro.embedding.autoencoder_embedder import AutoencoderEmbedder
from repro.embedding.base import Embedder
from repro.embedding.byol_embedder import BYOLEmbedder
from repro.embedding.contrastive_embedder import ContrastiveEmbedder
from repro.embedding.pca_embedder import PCAEmbedder
from repro.utils.errors import ConfigurationError, NotFittedError, ValidationError


def _two_phase_patches(n_per_phase=60, seed=0):
    """Bragg patches from two clearly different experiment conditions."""
    early = generate_bragg_scan(
        ExperimentCondition(0, peak_width=1.2, center_spread=1.0), n_peaks=n_per_phase, seed=seed
    )
    late = generate_bragg_scan(
        ExperimentCondition(1, peak_width=3.5, center_spread=3.5, noise_level=0.05),
        n_peaks=n_per_phase,
        seed=seed + 1,
    )
    x = np.concatenate([early.images, late.images], axis=0)
    phases = np.array([0] * n_per_phase + [1] * n_per_phase)
    return x, phases


def _phase_separation(z, phases):
    """Ratio of between-phase centroid distance to mean within-phase spread."""
    c0 = z[phases == 0].mean(axis=0)
    c1 = z[phases == 1].mean(axis=0)
    between = np.linalg.norm(c0 - c1)
    within = 0.5 * (
        np.linalg.norm(z[phases == 0] - c0, axis=1).mean()
        + np.linalg.norm(z[phases == 1] - c1, axis=1).mean()
    )
    return between / max(within, 1e-12)


# -- registry ---------------------------------------------------------------------
def test_registry_provides_all_builtin_embedders():
    assert isinstance(create_component("embedder", "pca", embedding_dim=4), PCAEmbedder)
    assert isinstance(create_component("embedder", "autoencoder", embedding_dim=4), AutoencoderEmbedder)
    assert isinstance(create_component("embedder", "contrastive", embedding_dim=4), ContrastiveEmbedder)
    assert isinstance(create_component("embedder", "byol", embedding_dim=4), BYOLEmbedder)
    with pytest.raises(ConfigurationError):
        create_component("embedder", "nope")


def test_register_custom_embedder():
    try:

        @register_component("embedder", "mean")
        class MeanEmbedder(Embedder):
            def fit(self, x, **kwargs):
                return self

            def transform(self, x):
                flat = self.flatten(x)
                return flat.mean(axis=1, keepdims=True)

        emb = create_component("embedder", "mean", embedding_dim=1)
        out = emb.fit_transform(np.ones((3, 4)))
        np.testing.assert_allclose(out, 1.0)
    finally:
        unregister_component("embedder", "mean")


def test_embedder_base_validation():
    with pytest.raises(ConfigurationError):
        PCAEmbedder(embedding_dim=0)


# -- PCA --------------------------------------------------------------------------------
def test_pca_embedder_shapes_and_explained_variance(rng):
    x = rng.normal(size=(50, 20))
    emb = PCAEmbedder(embedding_dim=5).fit(x)
    z = emb.transform(x)
    assert z.shape == (50, 5)
    assert emb.explained_variance_ratio_.shape == (5,)
    assert np.all(np.diff(emb.explained_variance_ratio_) <= 1e-12)


def test_pca_embedder_reconstructs_low_rank_structure(rng):
    # Data that genuinely lies in a 2-D subspace is captured exactly.
    basis = rng.normal(size=(2, 10))
    coeffs = rng.normal(size=(40, 2))
    x = coeffs @ basis
    emb = PCAEmbedder(embedding_dim=2).fit(x)
    assert emb.explained_variance_ratio_.sum() == pytest.approx(1.0)


def test_pca_embedder_pads_when_dim_exceeds_rank(rng):
    x = rng.normal(size=(5, 3))
    z = PCAEmbedder(embedding_dim=8).fit(x).transform(x)
    assert z.shape == (5, 8)
    np.testing.assert_allclose(z[:, 3:], 0.0)


def test_pca_embedder_errors(rng):
    emb = PCAEmbedder(embedding_dim=2)
    with pytest.raises(NotFittedError):
        emb.transform(rng.normal(size=(3, 4)))
    with pytest.raises(ValidationError):
        emb.fit(rng.normal(size=(1, 4)))
    emb.fit(rng.normal(size=(10, 4)))
    with pytest.raises(ValidationError):
        emb.transform(rng.normal(size=(3, 7)))


def test_pca_whiten_unit_variance(rng):
    x = rng.normal(size=(200, 6)) * np.array([10, 5, 1, 1, 1, 1])
    z = PCAEmbedder(embedding_dim=2, whiten=True).fit(x).transform(x)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=0.2)


def _svd_pca(x, embedding_dim, whiten=False):
    """``PCAEmbedder`` as it fitted every shape before the Gram-matrix path,
    kept as the reference: an economy SVD of the centred data.  Returns the
    components, the explained-variance ratios and the transform of ``x``."""
    flat = np.asarray(x, dtype=np.float64).reshape(x.shape[0], -1)
    n, d = flat.shape
    k = min(embedding_dim, d, n)
    centered = flat - flat.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = (s**2) / max(n - 1, 1)
    total = variances.sum()
    ratio = variances[:k] / total if total > 0 else np.zeros(k)
    z = centered @ vt[:k].T
    if whiten:
        z = z / (np.sqrt(variances[:k]) + 1e-12)
    return vt[:k], ratio, np.hstack([z, np.zeros((n, embedding_dim - k))])


def _assert_same_pca(x, embedding_dim, whiten=False, compare=None):
    """The embedder agrees with the SVD reference on the leading ``compare``
    components (all of them by default), up to one sign per component."""
    emb = PCAEmbedder(embedding_dim=embedding_dim, whiten=whiten).fit(x)
    components, ratio, z_ref = _svd_pca(x, embedding_dim, whiten)
    z = emb.transform(x)
    assert z.shape == z_ref.shape
    assert emb._components.shape == components.shape
    m = components.shape[0] if compare is None else compare
    signs = np.sign(np.sum(emb._components[:m] * components[:m], axis=1))
    assert np.all(signs != 0)
    np.testing.assert_allclose(emb._components[:m] * signs[:, None], components[:m], rtol=0, atol=1e-9)
    np.testing.assert_allclose(emb.explained_variance_ratio_, ratio, rtol=0, atol=1e-10)
    np.testing.assert_allclose(z[:, :m] * signs, z_ref[:, :m], rtol=1e-9, atol=1e-9)
    return emb, z, z_ref


@pytest.mark.parametrize(
    "n, d, embedding_dim, whiten",
    [
        (200, 12, 5, False),   # tall: the Gram path
        (200, 12, 12, False),  # every component
        (12, 12, 4, False),    # square: still the Gram path
        (8, 20, 5, False),     # fewer samples than features: the SVD fallback
        (200, 12, 5, True),
        (8, 20, 5, True),
        (30, 4, 8, False),     # asks for more than the data has: zero padding
        (30, 4, 8, True),
        (3, 10, 6, False),
    ],
)
def test_pca_gram_fit_matches_the_svd_fit(n, d, embedding_dim, whiten):
    rng = np.random.default_rng(n * 1000 + d)
    # Distinct column scales keep the singular values apart, so each
    # component is determined up to its sign.
    x = rng.normal(size=(n, d)) * np.linspace(6.0, 1.0, d) + rng.normal(size=d)
    _, z, _ = _assert_same_pca(x, embedding_dim, whiten)
    pad = embedding_dim - min(embedding_dim, n, d)
    if pad:
        np.testing.assert_array_equal(z[:, -pad:], 0.0)


def test_pca_gram_fit_on_images_rank_deficient_and_constant_columns():
    rng = np.random.default_rng(5)
    # Image-shaped input is flattened first.
    _assert_same_pca(rng.normal(size=(80, 3, 4)) * np.linspace(5.0, 1.0, 12).reshape(3, 4), 4)
    # A constant column carries no variance and gets no weight.
    x = rng.normal(size=(150, 6)) * np.linspace(4.0, 1.0, 6)
    x[:, 2] = 7.0
    emb, _, _ = _assert_same_pca(x, 3)
    np.testing.assert_allclose(emb._components[:, 2], 0.0, atol=1e-12)
    # Rank 3 in ten dimensions, six components asked for: the three real ones
    # agree; the rest span a null space in which no basis is preferred, carry
    # no variance, and send the data to zero.  There the Gram matrix resolves
    # sqrt(eps) of the largest singular value, where the SVD resolves eps.
    low = rng.normal(size=(120, 3)) * [9.0, 4.0, 2.0] @ np.linalg.qr(rng.normal(size=(10, 3)))[0].T
    emb, z, _ = _assert_same_pca(low, 6, compare=3)
    assert emb.explained_variance_ratio_[:3].sum() == pytest.approx(1.0)
    np.testing.assert_allclose(z[:, 3:], 0.0, atol=1e-6)
    np.testing.assert_allclose(emb._components @ emb._components.T, np.eye(6), atol=1e-9)
    # Nothing varies at all.
    flat = PCAEmbedder(embedding_dim=2).fit(np.full((9, 4), 3.0))
    np.testing.assert_array_equal(flat.explained_variance_ratio_, 0.0)
    np.testing.assert_array_equal(flat.transform(np.full((2, 4), 3.0)), 0.0)


def test_pca_separates_drift_phases():
    x, phases = _two_phase_patches()
    z = PCAEmbedder(embedding_dim=4).fit_transform(x)
    assert _phase_separation(z, phases) > 1.0


# -- trained embedders (kept small for CPU time) -------------------------------------------
def test_autoencoder_embedder_separates_drift_phases():
    x, phases = _two_phase_patches(n_per_phase=40)
    emb = AutoencoderEmbedder(embedding_dim=4, hidden=32, epochs=8, seed=0)
    z = emb.fit_transform(x)
    assert z.shape == (80, 4)
    assert _phase_separation(z, phases) > 0.8


def test_byol_embedder_shapes_and_not_fitted():
    x, _ = _two_phase_patches(n_per_phase=30)
    emb = BYOLEmbedder(embedding_dim=4, hidden=32, epochs=3, seed=0)
    with pytest.raises(NotFittedError):
        emb.transform(x)
    z = emb.fit_transform(x)
    assert z.shape == (60, 4)
    assert np.all(np.isfinite(z))


def test_contrastive_embedder_shapes():
    x, _ = _two_phase_patches(n_per_phase=30)
    emb = ContrastiveEmbedder(embedding_dim=4, hidden=32, epochs=3, seed=0)
    z = emb.fit_transform(x)
    assert z.shape == (60, 4)
    assert np.all(np.isfinite(z))


def test_autoencoder_embedder_not_fitted(rng):
    with pytest.raises(NotFittedError):
        AutoencoderEmbedder(embedding_dim=2).transform(rng.normal(size=(2, 8)))


def test_contrastive_embedder_not_fitted(rng):
    with pytest.raises(NotFittedError):
        ContrastiveEmbedder(embedding_dim=2).transform(rng.normal(size=(2, 8)))
