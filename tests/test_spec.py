"""Tests of the declarative config plane (repro.api.spec).

Covers the satellite checklist explicitly: unknown backend names, negative
batch size, JSON round-trip stability, digest invariance under key
reordering — plus cross-field constraints, diffing, DocumentDB persistence,
and preset/shipped-file consistency.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.spec import (
    ClusteringSpec,
    ContinualSpec,
    EmbedderSpec,
    IndexSpec,
    ModelSpec,
    NetworkSpec,
    ObservabilitySpec,
    ServingSpec,
    StorageSpec,
    SystemSpec,
    preset,
    preset_names,
)
from repro.storage import DocumentDB
from repro.utils.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parent.parent
PRESET_DIR = REPO_ROOT / "src" / "repro" / "api" / "presets"
#: Content digests of the presets as their Python builders produced them
#: before the JSON files became the only definition (commit 8f16b94).
PRESET_DIGESTS = {
    "ann": "1e525fc03c55", "continual": "58525902abd7", "minimal": "0772d4d87ee7",
    "networked": "f632033f20f7", "observed": "7a9fed8337c9", "serving": "6f5a42de1949",
}


# ---------------------------------------------------------------------------------
# Validation failure modes
# ---------------------------------------------------------------------------------
@pytest.mark.parametrize(
    "build",
    [
        lambda: EmbedderSpec("no-such-embedder"),
        lambda: ClusteringSpec("no-such-algorithm"),
        lambda: StorageSpec("no-such-store"),
        lambda: IndexSpec("no-such-index"),
        lambda: ModelSpec("no-such-model"),
        lambda: ContinualSpec(trigger="no-such-trigger"),
    ],
    ids=["embedder", "clustering", "storage", "index", "model", "trigger"],
)
def test_unknown_component_names_fail_eagerly(build):
    with pytest.raises(ConfigurationError, match="unknown"):
        build()


def test_unknown_names_list_available_components():
    with pytest.raises(ConfigurationError, match="pca"):
        EmbedderSpec("typo")


def test_negative_batch_size_fails_at_spec_time():
    with pytest.raises(ConfigurationError, match="batch_size"):
        ModelSpec("braggnn", training={"batch_size": -4})


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: ClusteringSpec(n_clusters=0), "n_clusters"),
        (lambda: ClusteringSpec(n_clusters="many"), "n_clusters"),
        (lambda: ClusteringSpec(max_auto_clusters=1), "max_auto_clusters"),
        (lambda: IndexSpec(dtype="float16"), "dtype"),
        (lambda: ModelSpec("braggnn", training={"epochs": 0}), "epochs"),
        (lambda: ModelSpec("braggnn", training={"nonsense": 1}), "invalid parameters"),
        (lambda: ModelSpec("braggnn", params={"width": "wide"}), "ModelSpec"),
        (lambda: ServingSpec(num_workers=0), "num_workers"),
        (lambda: ServingSpec(batching={"max_batch_size": 0}), "max_batch_size"),
        (lambda: ContinualSpec(gate_factor=0.0), "gate_factor"),
        (lambda: ContinualSpec(gate_factor="2.0"), "gate_factor.*number"),
        (lambda: ContinualSpec(absolute_gate=-1.0), "absolute_gate"),
        (lambda: ContinualSpec(absolute_gate="low"), "absolute_gate.*number"),
        (lambda: ContinualSpec(step_timeout_s="soon"), "step_timeout_s.*number"),
        (lambda: ContinualSpec(step_retries=-1), "step_retries"),
        (lambda: ClusteringSpec(max_auto_clusters="many"), "max_auto_clusters"),
        (lambda: ClusteringSpec(n_clusters=4, params={"n_clusters": 8}),
         "must not contain 'n_clusters'"),
        (lambda: ServingSpec(num_workers=True), "num_workers"),
        (lambda: ContinualSpec(trigger_params={"threshold_percent": 200.0}), "threshold_percent"),
        (lambda: StorageSpec(collection=""), "collection"),
        (lambda: SystemSpec(policy={"distance_threshold": 5.0}), "distance_threshold"),
        (lambda: SystemSpec(seed="zero"), "seed"),
        (lambda: IndexSpec("ivf", n_probe=0), "n_probe"),
        (lambda: IndexSpec("ivf", n_probe=True), "n_probe"),
        (lambda: IndexSpec("ivf", n_probe=2.5), "n_probe"),
        (lambda: IndexSpec("ivf", n_probe=4, params={"n_probe": 2}),
         "must not contain 'n_probe'"),
        (lambda: IndexSpec("flat", n_probe=4), "does not accept"),
    ],
    ids=lambda val: getattr(val, "__name__", str(val)),
)
def test_out_of_range_params_fail_eagerly(build, match):
    with pytest.raises(ConfigurationError, match=match):
        build()


def test_a_sharding_section_is_refused_naming_the_removal():
    """The sharded store is gone; its slot survives only so that spec files
    still carrying ``"sharding": null`` keep loading."""
    assert SystemSpec.from_dict({"sharding": None}) == SystemSpec()
    for section in ({"shards": 4, "shard_backend": "flat"}, {}):
        with pytest.raises(ConfigurationError, match="sharded store was removed"):
            SystemSpec.from_dict({"sharding": section})


def test_an_executor_section_is_refused_naming_the_removal():
    """The compute plane is gone; its slot survives only so that spec files
    still carrying ``"executor": null`` (every preset and perf spec) keep
    loading with unchanged digests."""
    assert SystemSpec.from_dict({"executor": None}) == SystemSpec()
    for section in ({"kind": "process", "workers": 2, "params": {}}, {}):
        with pytest.raises(ConfigurationError, match="compute plane was removed"):
            SystemSpec.from_dict({"executor": section})


def test_fair_tenancy_batching_is_refused():
    with pytest.raises(ConfigurationError, match="fair_tenancy"):
        ServingSpec(batching={"max_batch_size": 8, "fair_tenancy": True})


def test_params_must_be_json_serialisable():
    with pytest.raises(ConfigurationError, match="JSON"):
        EmbedderSpec("pca", {"embedding_dim": object()})
    with pytest.raises(ConfigurationError, match="keys must be strings"):
        EmbedderSpec("pca", {1: 2})


def test_cross_field_continual_requires_model():
    with pytest.raises(ConfigurationError, match="requires a 'model'"):
        SystemSpec(continual=ContinualSpec())


def test_cross_field_file_backend_cannot_back_the_system_store():
    with pytest.raises(ConfigurationError, match="document database"):
        SystemSpec(storage=StorageSpec("file"))


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown SystemSpec field"):
        SystemSpec.from_dict({"name": "x", "turbo": True})
    with pytest.raises(ConfigurationError, match="unknown EmbedderSpec field"):
        SystemSpec.from_dict({"embedder": {"name": "pca", "dim": 3}})


# ---------------------------------------------------------------------------------
# Round-trip, digest, diff
# ---------------------------------------------------------------------------------
def _full_spec() -> SystemSpec:
    return SystemSpec(
        name="roundtrip",
        seed=7,
        embedder=EmbedderSpec("pca", {"embedding_dim": 5, "whiten": True}),
        clustering=ClusteringSpec("kmeans", n_clusters=4, params={"n_init": 2}),
        storage=StorageSpec("documentdb", collection="samples", params={"codec": "blosc"}),
        index=IndexSpec("clustered", dtype="float64", params={"n_probe": 3}),
        model=ModelSpec("braggnn", {"width": 4}, training={"epochs": 2, "batch_size": 8}),
        serving=ServingSpec(batching={"max_batch_size": 8}, num_workers=3),
        continual=ContinualSpec(trigger="certainty",
                                trigger_params={"threshold_percent": 30.0, "cooldown": 2},
                                gate_factor=1.5, step_retries=1),
        policy={"distance_threshold": 0.6},
    )


def test_json_round_trip_is_stable():
    spec = _full_spec()
    once = SystemSpec.from_json(spec.to_json())
    twice = SystemSpec.from_json(once.to_json())
    assert once == spec and twice == spec
    assert once.to_dict() == spec.to_dict()
    assert once.digest() == spec.digest()


def test_save_load_round_trip(tmp_path):
    spec = _full_spec()
    path = spec.save(tmp_path / "spec.json")
    assert SystemSpec.load(path) == spec


def test_digest_invariant_under_key_reordering():
    spec = _full_spec()
    data = spec.to_dict()
    # Rebuild the dict with reversed key insertion order at every level.
    reordered = json.loads(
        json.dumps({k: data[k] for k in reversed(list(data))})
    )
    reordered["model"] = {k: spec.to_dict()["model"][k]
                          for k in reversed(list(spec.to_dict()["model"]))}
    assert list(reordered) != list(data)  # genuinely different orderings
    assert SystemSpec.from_dict(reordered).digest() == spec.digest()


def test_digest_distinguishes_different_specs():
    spec = _full_spec()
    other = dataclasses.replace(spec, seed=8)
    assert other.digest() != spec.digest()


def test_diff_reports_dotted_paths():
    spec = _full_spec()
    other = dataclasses.replace(
        spec,
        seed=8,
        embedder=EmbedderSpec("pca", {"embedding_dim": 9, "whiten": True}),
    )
    diff = spec.diff(other)
    assert diff["seed"] == (7, 8)
    assert diff["embedder.params.embedding_dim"] == (5, 9)
    assert "name" not in diff
    assert spec.diff(spec) == {}


def test_diff_sections_present_on_one_side_are_json_serialisable():
    """Paths that exist on only one side report None (no private sentinel
    leaking out), and the whole diff is JSON-serialisable."""
    minimal, serving = preset("minimal"), preset("serving")
    diff = minimal.diff(serving)
    assert diff["model"] == (None, serving.to_dict()["model"])
    assert diff["model.architecture"] == (None, "braggnn")
    assert diff["serving.num_workers"] == (None, 2)
    json.dumps({path: list(values) for path, values in diff.items()})  # no opaque objects


def test_invalid_json_text_raises_configuration_error():
    with pytest.raises(ConfigurationError, match="invalid spec JSON"):
        SystemSpec.from_json("{not json")


def test_json_null_spec_is_rejected_not_none():
    with pytest.raises(ConfigurationError, match="must be a mapping"):
        SystemSpec.from_json("null")
    with pytest.raises(ConfigurationError, match="must be a mapping"):
        SystemSpec.from_dict(None)


# ---------------------------------------------------------------------------------
# DocumentDB persistence
# ---------------------------------------------------------------------------------
def test_persist_and_load_by_digest_survive_save_load(tmp_path):
    spec = _full_spec()
    db = DocumentDB()
    digest = spec.persist(db)
    assert spec.persist(db) == digest  # idempotent upsert
    assert db.collection("system_specs").count() == 1
    db.save(tmp_path / "db.bin")
    restored_db = DocumentDB.load(tmp_path / "db.bin")
    assert SystemSpec.from_db(restored_db, digest) == spec
    with pytest.raises(ConfigurationError, match="no spec with digest"):
        SystemSpec.from_db(db, "0" * 64)


# ---------------------------------------------------------------------------------
# Presets and shipped spec files
# ---------------------------------------------------------------------------------
def test_preset_names_and_unknown_preset():
    assert preset_names() == [
        "ann", "continual", "minimal", "networked", "observed", "serving",
    ]
    with pytest.raises(ConfigurationError, match="unknown preset"):
        preset("turbo")


def test_presets_compose_incrementally():
    minimal, serving, continual = preset("minimal"), preset("serving"), preset("continual")
    assert minimal.model is None and minimal.continual is None
    assert serving.model is not None and serving.continual is None
    assert continual.model is not None and continual.continual is not None
    # serving extends minimal; continual extends serving.
    assert {p.split(".")[0] for p in minimal.diff(serving)} <= {"name", "model", "serving", "policy"}
    assert {p.split(".")[0] for p in serving.diff(continual)} == {"name", "continual"}


@pytest.mark.parametrize(
    "name",
    ["minimal", "serving", "continual", "ann", "observed", "networked"],
)
def test_shipped_spec_files_match_presets(name):
    """src/repro/api/presets/*.json *are* the presets: each file is in the
    canonical form ``save`` writes (so ``repro presets --write`` over the
    directory is a byte-for-byte no-op and no file omits or invents a field),
    is named after its spec, and still describes the system it always did."""
    shipped = PRESET_DIR / f"{name}.json"
    spec = SystemSpec.load(shipped)
    assert spec.to_json() + "\n" == shipped.read_text()
    assert spec.name == shipped.stem
    assert spec.digest()[:12] == PRESET_DIGESTS[name]
    assert preset(name) == spec


def test_network_spec_validation_and_round_trip():
    with pytest.raises(ConfigurationError, match="port"):
        NetworkSpec(port=70000)
    with pytest.raises(ConfigurationError, match="replicas"):
        NetworkSpec(replicas=0)
    with pytest.raises(ConfigurationError, match="max_frame_bytes"):
        NetworkSpec(max_frame_bytes=16)
    with pytest.raises(ConfigurationError, match="health_interval_s"):
        NetworkSpec(health_interval_s=0)
    # autoscale is validated by trial-constructing the policy
    with pytest.raises(ConfigurationError, match="autoscale"):
        NetworkSpec(autoscale={"min_replicas": 0})
    with pytest.raises(ConfigurationError, match="unknown AutoscalePolicy"):
        NetworkSpec(autoscale={"surprise": 1})
    with pytest.raises(ConfigurationError, match="max_replicas must be >="):
        NetworkSpec(replicas=4, autoscale={"max_replicas": 2})
    spec = NetworkSpec(replicas=3, autoscale={"max_replicas": 5, "up_after": 1})
    assert NetworkSpec.from_dict(spec.to_dict()) == spec
    assert NetworkSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_networked_preset_extends_serving_with_network_plane():
    serving, networked = preset("serving"), preset("networked")
    assert networked.network is not None
    assert networked.network.replicas == 2
    assert networked.network.autoscale is not None
    assert {p.split(".")[0] for p in serving.diff(networked)} == {"name", "network"}
    # The network topology rides the digest: rescaling is a config change.
    assert networked.digest() != serving.digest()


def test_system_spec_rejects_wrong_network_type():
    with pytest.raises(ConfigurationError, match="network"):
        SystemSpec(network={"port": 0})  # must be a NetworkSpec, not a dict


def test_ann_preset_configures_ivf_with_live_knob():
    spec = preset("ann")
    assert spec.index.backend == "ivf"
    assert spec.index.n_probe is not None and spec.index.n_probe >= 1
    assert spec.model is None and spec.serving is not None
    # n_probe rides the digest: retuning the knob is a config change.
    retuned = dataclasses.replace(
        spec, index=dataclasses.replace(spec.index, n_probe=spec.index.n_probe + 1)
    )
    assert retuned.digest() != spec.digest()
    assert "index.n_probe" in spec.diff(retuned)


def test_presets_are_found_as_package_data_from_any_directory(tmp_path):
    """The presets ship inside the package (importlib.resources), not in a
    checkout-relative directory: they resolve with the cwd outside the repo."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.api.spec import preset_names; print(','.join(preset_names()))"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        check=True, capture_output=True, text=True,
    )
    assert out.stdout.strip().split(",") == sorted(PRESET_DIGESTS)
    assert sorted(f.stem for f in PRESET_DIR.iterdir()) == sorted(PRESET_DIGESTS)


# ---------------------------------------------------------------------------------
# Table-driven: generated from dataclasses.fields, so a new field is covered
# without editing this file
# ---------------------------------------------------------------------------------
SPEC_CLASSES = [
    EmbedderSpec, ClusteringSpec, StorageSpec, IndexSpec, ModelSpec,
    ServingSpec, ContinualSpec, ObservabilitySpec, NetworkSpec, SystemSpec,
]
ALL_FIELDS = [(cls, f.name) for cls in SPEC_CLASSES for f in dataclasses.fields(cls)]


class _NotAConfigValue:
    """No field of any spec accepts one of these."""


@pytest.mark.parametrize("cls, name", ALL_FIELDS, ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("wrong", [_NotAConfigValue(), [[1]]], ids=["object", "nested-list"])
def test_every_field_rejects_a_wrong_typed_value_with_configuration_error(cls, name, wrong):
    """A field cannot exist without a check: a value of no sensible type
    raises ConfigurationError — never a bare TypeError/ValueError, never accepted."""
    with pytest.raises(ConfigurationError):
        cls(**{name: wrong})


@pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda c: c.__name__)
def test_defaults_round_trip_and_serialise_to_strict_json(cls):
    spec = cls()
    assert cls.from_dict(spec.to_dict()) == spec
    assert set(spec.to_dict()) == {f.name for f in dataclasses.fields(cls)}

    def reject(constant):
        raise AssertionError(f"{cls.__name__} serialised the non-JSON constant {constant}")

    assert json.loads(json.dumps(spec.to_dict()), parse_constant=reject) == spec.to_dict()


def test_no_spec_class_hand_writes_its_own_serialisation():
    for cls in SPEC_CLASSES:
        assert {"to_dict", "from_dict", "__post_init__"}.isdisjoint(vars(cls)), cls.__name__


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: ContinualSpec(checkpoint="false"), "checkpoint.*boolean"),
        (lambda: ContinualSpec(refresh_on_trigger=0), "refresh_on_trigger.*boolean"),
        (lambda: ContinualSpec(gate_factor=float("nan")), "gate_factor.*finite"),
        (lambda: ContinualSpec(absolute_gate=float("inf")), "absolute_gate.*finite"),
        (lambda: ContinualSpec(step_timeout_s=float("inf")), "step_timeout_s.*finite"),
        (lambda: NetworkSpec(health_interval_s=float("inf")), "health_interval_s.*finite"),
        (lambda: ObservabilitySpec(exporters=[[1]]), "list of names"),
        (lambda: StorageSpec(params={"network": {"latency_s": float("nan")}}), "JSON"),
    ],
    ids=["checkpoint-str", "refresh-int", "gate-nan", "abs-gate-inf", "timeout-inf",
         "health-inf", "exporters-nested", "params-nan"],
)
def test_values_the_hand_written_checks_let_through_are_rejected(build, match):
    """Accepted at the parent: a truthy ``"false"``, and NaN/Infinity that
    ``save()`` then wrote as tokens strict JSON parsers reject."""
    with pytest.raises(ConfigurationError, match=match):
        build()
