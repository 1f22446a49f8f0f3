"""Tests for the package-wide component registry (repro.api.registry)."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import (
    available_components,
    component_kinds,
    create_component,
    create_from_spec,
    is_registered,
    register_component,
    unregister_component,
)
from repro.storage import (
    ClusteredVectorIndex,
    DocumentDB,
    FileStore,
    IndexBackend,
    StorageBackend,
    VectorIndex,
)
from repro.storage.codecs import CompressedCodec
from repro.utils.errors import ConfigurationError

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------------
# Storage and index backends by name
# ---------------------------------------------------------------------------------
def test_builtin_backends_are_listed():
    assert {"file", "documentdb"} <= set(available_components("storage"))
    assert {"flat", "clustered"} <= set(available_components("index"))


def test_create_index_backends_by_name():
    flat = create_component("index", "flat", dim=3)
    assert isinstance(flat, VectorIndex)
    clustered = create_component("index", "clustered", centers=np.zeros((2, 3)), n_probe=2)
    assert isinstance(clustered, ClusteredVectorIndex)
    assert isinstance(flat, IndexBackend)
    assert isinstance(clustered, IndexBackend)


def test_create_storage_backends_by_name(tmp_path):
    store = create_component("storage", "file", root=str(tmp_path / "s"))
    assert isinstance(store, FileStore)
    db = create_component("storage", "documentdb", codec="blosc")
    assert isinstance(db, DocumentDB)
    assert isinstance(db.codec, CompressedCodec)
    assert isinstance(store, StorageBackend)
    assert isinstance(db, StorageBackend)


def test_documentdb_network_from_mapping():
    db = create_component("storage", "documentdb", network={"latency_s": 0.001})
    assert db.network.latency_s == pytest.approx(0.001)


def test_documentdb_storage_bytes_sums_collections():
    db = create_component("storage", "documentdb")
    assert db.storage_bytes() == 0
    db.collection("a").insert_one({"k": 1}, payload=np.zeros(8))
    db.collection("b").insert_one({"k": 2}, payload=np.zeros(8))
    assert db.storage_bytes() == sum(s["payload_bytes"] for s in db.stats().values())
    assert db.storage_bytes() > 0


def test_unknown_backend_and_kind_raise():
    with pytest.raises(ConfigurationError):
        create_component("index", "nope")
    with pytest.raises(ConfigurationError):
        create_component("bogus-kind", "flat")
    with pytest.raises(ConfigurationError):
        available_components("bogus-kind")


@pytest.mark.parametrize("name", ["mmap", "sharded"])
def test_an_unknown_index_name_is_refused_with_the_builtins_listed(name):
    with pytest.raises(ConfigurationError, match="available") as err:
        create_component("index", name, path="idx")
    assert str(err.value).endswith("available: ['clustered', 'flat', 'ivf']")


def test_register_custom_backend_decorator_and_duplicates():
    try:

        @register_component("index", "unit-test-backend")
        class TinyIndex:
            def __init__(self, dim=1):
                self.dim = dim

            def __len__(self):
                return 0

            def query(self, vector, k=1):
                return []

            def query_batch(self, vectors, k=1):
                return []

        created = create_component("index", "unit-test-backend", dim=7)
        assert isinstance(created, TinyIndex) and created.dim == 7
        with pytest.raises(ConfigurationError):
            register_component("index", "unit-test-backend", TinyIndex)
        register_component("index", "unit-test-backend", TinyIndex, overwrite=True)
    finally:
        # Don't leak the temporary backend into the process-wide registry.
        assert unregister_component("index", "unit-test-backend")
    assert "unit-test-backend" not in available_components("index")
    assert not unregister_component("index", "unit-test-backend")


def test_create_from_spec_builds_any_kind_from_a_config_dict():
    index = create_from_spec({"kind": "index", "name": "flat", "params": {"dim": 4}})
    assert isinstance(index, VectorIndex) and index.dim == 4
    db = create_from_spec({"kind": "storage", "name": "documentdb", "params": {"codec": "blosc"}})
    assert isinstance(db.codec, CompressedCodec)
    assert create_from_spec({"kind": "trigger", "name": "certainty"}) is not None
    with pytest.raises(ConfigurationError, match="'kind' and 'name'"):
        create_from_spec({"name": "flat"})


# ---------------------------------------------------------------------------------
# The unified package-wide component registry (repro.api.registry)
# ---------------------------------------------------------------------------------
def test_unified_registry_covers_every_component_kind():
    assert component_kinds() == [
        "embedder", "clustering", "storage", "index", "model", "trigger", "policy",
    ]
    assert {"pca", "autoencoder", "contrastive", "byol"} <= set(available_components("embedder"))
    assert "kmeans" in available_components("clustering")
    assert {"file", "documentdb"} <= set(available_components("storage"))
    assert set(available_components("index")) == {"flat", "clustered", "ivf"}
    assert {"braggnn", "cookienetae", "tomogan"} <= set(available_components("model"))
    assert {"threshold", "certainty"} <= set(available_components("trigger"))
    assert {"batching", "update"} <= set(available_components("policy"))


def test_unified_registry_unknown_kind_and_name():
    with pytest.raises(ConfigurationError, match="unknown component kind"):
        available_components("bogus")
    with pytest.raises(ConfigurationError, match="available"):
        create_component("trigger", "nope")


# ---------------------------------------------------------------------------------
# One registry: what is registered here is what specs *and* tuning see
# ---------------------------------------------------------------------------------
def test_custom_embedder_registration_reaches_the_unified_registry():
    """A class registered with ``register_component("embedder", ...)`` is
    constructible from a spec and usable by the tuner; unregistering removes
    it from both (at the parent the tuner read a second, one-way table)."""
    from repro.api.spec import EmbedderSpec
    from repro.embedding import Embedder, grid_search_embedder

    try:

        @register_component("embedder", "unit-test-null")
        class NullEmbedder(Embedder):
            def fit(self, x, **kwargs):
                return self

            def transform(self, x):
                return self.flatten(x)[:, : self.embedding_dim]

        assert is_registered("embedder", "unit-test-null")
        spec = EmbedderSpec("unit-test-null", {"embedding_dim": 2})
        assert isinstance(create_component("embedder", spec.name, **spec.params), NullEmbedder)
        report = grid_search_embedder(
            "unit-test-null", np.random.default_rng(0).normal(size=(40, 6)),
            {"embedding_dim": [2, 3]}, n_clusters=3,
        )
        assert isinstance(report.best.embedder, NullEmbedder)
    finally:
        assert unregister_component("embedder", "unit-test-null")
    with pytest.raises(ConfigurationError, match="unknown embedder"):
        EmbedderSpec("unit-test-null")
    with pytest.raises(ConfigurationError, match="unknown embedder"):
        grid_search_embedder("unit-test-null", np.zeros((4, 2)), {"embedding_dim": [1]})


def test_embedding_package_does_not_import_the_registry():
    """The dependency points one way: the registry's built-in table imports
    ``repro.embedding``, never the reverse.  ``repro/__init__`` itself pulls
    in ``repro.core`` (which needs the registry), so the package root is
    stubbed to observe the embedding package's own imports."""
    script = textwrap.dedent(f"""
        import sys, types
        root = types.ModuleType("repro")
        root.__path__ = [{str(SRC / "repro")!r}]
        sys.modules["repro"] = root
        import repro.embedding
        assert "repro.api.registry" not in sys.modules, "repro.embedding imported the registry"
    """)
    subprocess.run([sys.executable, "-c", script], check=True)
