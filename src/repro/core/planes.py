"""User-plane / system-plane orchestration of fairDMS (paper Fig. 5).

The paper separates fairDMS operations into a *user plane* (operations an end
user invokes directly: query data, request a model update) and a *system
plane* (background maintenance: retrain the embedding model, retrain the
clustering model, update the data store, update the model index).  In the
paper's deployment both planes are funcX functions coordinated by a Globus
Flow; :class:`FairDMSService` keeps that structure — named plane functions,
every invocation logged with its plane, duration and outcome — but calls each
function directly on the caller's thread, so a serving runtime's workers run
as many handlers at once as it has workers.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import Counter, deque
from functools import partial
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fairdms import FairDMS, ModelUpdateReport
from repro.core.fairds import FairDS
from repro.monitoring.triggers import ThresholdTrigger
from repro.serving import BatchingPolicy, ServingRuntime, ServingTelemetry

#: How many recent :class:`PlaneActivity` entries ``FairDMSService.activity``
#: keeps; the per-function counts of ``activity_summary`` are kept separately
#: and stay exact however long the service runs.
ACTIVITY_LOG_SIZE = 1024


def lookup_payload(result) -> Dict[str, Any]:
    """The serving-payload dict of one :class:`~repro.core.fairds.LookupResult`
    — the wire shape shared by :meth:`FairDMSService.lookup_labeled_data` and
    the ``"lookup_labeled_data"`` serving operation (also when a model-less
    ``Deployment`` serves it straight off fairDS)."""
    return {
        "images": result.images,
        "labels": result.labels,
        "doc_ids": result.doc_ids,
        "distribution": result.input_distribution.as_dict(),
        "generation": result.generation,
    }


def _split_pairs(payloads: Sequence[Any]) -> Tuple[List[Any], List[Any]]:
    """Unpack serving payloads that are each a value or a ``(value, option)``
    tuple — ``(images, n_samples)`` for ``"lookup_labeled_data"``, ``(sample,
    threshold)`` for ``"nearest_labeled"`` — into parallel value / option
    lists (``None`` where a request set no option)."""
    pairs = [payload if isinstance(payload, tuple) else (payload, None) for payload in payloads]
    return [value for value, _ in pairs], [option for _, option in pairs]


def nearest_hits_payload(
    hits: Sequence[Tuple[Optional[np.ndarray], float]],
    thresholds: Optional[Sequence[Optional[float]]] = None,
) -> List[Dict[str, Any]]:
    """Wire shape of ``"nearest_labeled"`` results: one
    ``{"label", "distance", "within"}`` dict per sample, with each request's
    own threshold applied (``None`` accepts any distance).  The label of an
    out-of-threshold hit is withheld — the caller should fall back to
    conventional labeling, exactly the Fig. 9 branch."""
    if thresholds is None:
        thresholds = [None] * len(hits)
    out: List[Dict[str, Any]] = []
    for (label, distance), threshold in zip(hits, thresholds):
        within = label is not None and (threshold is None or distance < threshold)
        out.append({
            "label": label if within else None,
            "distance": float(distance),
            "within": bool(within),
        })
    return out


def data_plane_handlers(fairds: FairDS) -> Dict[str, Callable[[List[Any]], Sequence[Any]]]:
    """The serving op table: one batch handler per data-plane operation,
    straight off ``fairds``.  A model-less ``Deployment`` serves it as it is;
    :meth:`FairDMSService.serving_handlers` adds the activity record."""

    def query_distribution(payloads: List[Any]) -> List[Dict[str, Any]]:
        return [d.as_dict() for d in fairds.dataset_distribution_batch(list(payloads))]

    def lookup(payloads: List[Any]) -> List[Dict[str, Any]]:
        batches, n_samples = _split_pairs(payloads)
        return [lookup_payload(r) for r in fairds.lookup_batch(batches, n_samples=n_samples)]

    def nearest(payloads: List[Any]) -> List[Dict[str, Any]]:
        # The whole micro-batch resolves in a single index probe; thresholds
        # apply per-request afterwards.
        images, thresholds = _split_pairs(payloads)
        hits = fairds.nearest_labeled(np.stack(images), threshold=None)
        return nearest_hits_payload(hits, thresholds)

    def certainty(payloads: List[Any]) -> List[float]:
        return fairds.certainty_batch(list(payloads))

    return {
        "query_distribution": query_distribution,
        "lookup_labeled_data": lookup,
        "nearest_labeled": nearest,
        "certainty": certainty,
    }


def wire_index_controls(fairds: FairDS, runtime: ServingRuntime) -> ServingRuntime:
    """Expose the vector index's live controls on ``runtime``: the ``n_probe``
    retuning knob (when the backend has one) and an ``"index_scan"`` stats
    provider so per-partition scan counters appear in every telemetry
    snapshot.  Both resolve against the published generation at call time,
    so they follow the index across refreshes."""
    if fairds.index_supports_n_probe:
        runtime.register_knob(
            "n_probe", fairds.set_index_n_probe, getter=lambda: fairds.index_n_probe
        )
    runtime.register_stats_provider("index_scan", fairds.index_stats)
    return runtime


@dataclass
class PlaneActivity:
    """A log entry for a plane function invocation."""

    plane: str
    function: str
    succeeded: bool
    seconds: float
    detail: Dict[str, Any] = field(default_factory=dict)


class FairDMSService:
    """Serves fairDMS through registered user-plane and system-plane functions.

    Parameters
    ----------
    dms:
        The :class:`FairDMS` instance to serve.
    auto_system_plane:
        When True (default), every user-plane model-update request whose
        certainty check triggered a refresh also records the system-plane
        activity, mirroring the paper's automatic background maintenance.
    """

    USER_PLANE = "user"
    SYSTEM_PLANE = "system"
    #: The plane function each serving operation's micro-batch is logged as.
    _SERVING_ACTIVITY = {
        "query_distribution": (USER_PLANE, "query_distribution_batch"),
        "lookup_labeled_data": (USER_PLANE, "lookup_labeled_data_batch"),
        "nearest_labeled": (USER_PLANE, "nearest_labeled"),
        "certainty": (SYSTEM_PLANE, "certainty_batch"),
    }

    def __init__(self, dms: FairDMS, auto_system_plane: bool = True):
        self.dms = dms
        self.auto_system_plane = bool(auto_system_plane)
        #: The most recent invocations (at most :data:`ACTIVITY_LOG_SIZE`).
        self.activity: Deque[PlaneActivity] = deque(maxlen=ACTIVITY_LOG_SIZE)
        self._activity_counts: Counter = Counter()
        # Serving workers invoke plane functions concurrently; the lock keeps
        # the log and its counts in step.
        self._activity_lock = threading.Lock()
        # Serving runtimes wired to this service (weakly held, so an
        # abandoned runtime does not pin the service's telemetry forever).
        self._runtimes: "weakref.WeakSet[ServingRuntime]" = weakref.WeakSet()
        self._functions: Dict[str, Callable[..., Any]] = {
            # user plane
            "query_distribution": self._fn_query_distribution,
            "query_distribution_batch": self._fn_query_distribution_batch,
            "lookup_labeled_data": self._fn_lookup,
            "lookup_labeled_data_batch": self._fn_lookup_batch,
            "nearest_labeled": self._fn_nearest_labeled,
            "update_model": self._fn_update_model,
            # system plane
            "refresh_representations": self._fn_refresh,
            "ingest_labeled_data": self._fn_ingest,
            "certainty_batch": self._fn_certainty_batch,
        }

    def registered_functions(self) -> List[str]:
        return sorted(self._functions)

    # -- plane function bodies ---------------------------------------------------------
    def _fn_query_distribution(self, images: np.ndarray, label: str = "") -> Dict[str, Any]:
        return self._fn_query_distribution_batch([images], label)[0]

    def _fn_query_distribution_batch(self, batches: List[np.ndarray], label: str = "") -> List[Dict[str, Any]]:
        dists = self.dms.fairds.dataset_distribution_batch(batches, labels=[label] * len(batches))
        return [d.as_dict() for d in dists]

    def _fn_lookup(self, images: np.ndarray, n_samples: Optional[int] = None) -> Dict[str, Any]:
        return lookup_payload(self.dms.fairds.lookup(images, n_samples=n_samples))

    def _fn_lookup_batch(
        self,
        batches: List[np.ndarray],
        n_samples: Optional[Union[int, Sequence[Optional[int]]]] = None,
    ) -> List[Dict[str, Any]]:
        results = self.dms.fairds.lookup_batch(batches, n_samples=n_samples)
        return [lookup_payload(r) for r in results]

    def _fn_nearest_labeled(
        self,
        images: np.ndarray,
        thresholds: Optional[Sequence[Optional[float]]] = None,
    ) -> List[Dict[str, Any]]:
        hits = self.dms.fairds.nearest_labeled(images, threshold=None)
        return nearest_hits_payload(hits, thresholds)

    def _fn_certainty_batch(self, batches: List[np.ndarray]) -> List[float]:
        return self.dms.fairds.certainty_batch(batches)

    def _fn_update_model(self, images: np.ndarray, label: str) -> ModelUpdateReport:
        return self.dms.update_model(images, label=label)

    def _fn_refresh(self) -> int:
        self.dms.fairds.refresh()
        return self.dms.fairds.store_size()

    def _fn_ingest(self, images: np.ndarray, labels: np.ndarray) -> int:
        ids = self.dms.fairds.ingest(images, labels)
        return len(ids)

    # -- user-facing API -----------------------------------------------------------------
    def _record(self, entry: PlaneActivity) -> None:
        with self._activity_lock:
            self.activity.append(entry)
            self._activity_counts[f"{entry.plane}:{entry.function}"] += 1

    def _invoke(self, plane: str, name: str, *args, function: Optional[Callable[..., Any]] = None):
        """Call plane function ``name`` (or ``function`` under that name) on
        this thread and log the invocation."""
        start = time.perf_counter()
        succeeded = False
        try:
            result = (function or self._functions[name])(*args)
            succeeded = True
            return result
        finally:
            self._record(PlaneActivity(plane=plane, function=name, succeeded=succeeded,
                                       seconds=time.perf_counter() - start))

    def query_distribution(self, images: np.ndarray, label: str = "") -> Dict[str, Any]:
        """User plane: the cluster PDF of a dataset."""
        return self._invoke(self.USER_PLANE, "query_distribution", images, label)

    def query_distribution_batch(self, batches: List[np.ndarray], label: str = "") -> List[Dict[str, Any]]:
        """User plane: cluster PDFs for a whole batch of datasets at once."""
        return self._invoke(self.USER_PLANE, "query_distribution_batch", batches, label)

    def lookup_labeled_data(self, images: np.ndarray, n_samples: Optional[int] = None) -> Dict[str, Any]:
        """User plane: pseudo-label a dataset from the historical store."""
        return self._invoke(self.USER_PLANE, "lookup_labeled_data", images, n_samples)

    def lookup_labeled_data_batch(
        self,
        batches: List[np.ndarray],
        n_samples: Optional[Union[int, Sequence[Optional[int]]]] = None,
    ) -> List[Dict[str, Any]]:
        """User plane: pseudo-label several datasets in one batched call.

        Returns one payload per dataset, identical to issuing that many
        :meth:`lookup_labeled_data` calls in order.  ``n_samples`` may be one
        override applied to every dataset or a per-dataset sequence (``None``
        entries fall back to the dataset size), mirroring
        :meth:`repro.core.fairds.FairDS.lookup_batch`.
        """
        return self._invoke(self.USER_PLANE, "lookup_labeled_data_batch", batches, n_samples)

    def nearest_labeled(
        self,
        images: np.ndarray,
        thresholds: Optional[Sequence[Optional[float]]] = None,
    ) -> List[Dict[str, Any]]:
        """User plane: the nearest labeled historical sample per query image.

        Returns one ``{"label", "distance", "within"}`` dict per row of
        ``images``; when ``thresholds`` gives a per-sample distance gate, the
        label of an out-of-threshold hit is withheld (``within=False``) so
        the caller falls back to conventional labeling.
        """
        return self._invoke(self.USER_PLANE, "nearest_labeled", images, thresholds)

    def certainty_batch(self, batches: List[np.ndarray]) -> List[float]:
        """System plane: cluster-assignment certainty of several datasets."""
        return self._invoke(self.SYSTEM_PLANE, "certainty_batch", batches)

    def request_model_update(self, images: np.ndarray, label: str = "update") -> ModelUpdateReport:
        """User plane: the full fairDMS model-update operation, followed by
        the system-plane record of the refresh it may have triggered."""
        report = self._invoke(self.USER_PLANE, "update_model", images, label)
        self._record_refresh_activity(report)
        return report

    def _record_refresh_activity(self, report: ModelUpdateReport) -> None:
        if self.auto_system_plane and report.triggered_refresh:
            self._record(
                PlaneActivity(
                    plane=self.SYSTEM_PLANE,
                    function="refresh_representations",
                    succeeded=True,
                    seconds=report.timings.get("system_refresh", 0.0),
                    detail={"triggered_by": "certainty"},
                )
            )

    def ingest_labeled_data(self, images: np.ndarray, labels: np.ndarray) -> int:
        """System plane: add newly labeled data to the historical store."""
        return self._invoke(self.SYSTEM_PLANE, "ingest_labeled_data", images, labels)

    def refresh_representations(self) -> int:
        """System plane: retrain embedding + clustering and rebuild the store index."""
        return self._invoke(self.SYSTEM_PLANE, "refresh_representations")

    # -- concurrent serving -----------------------------------------------------------------
    def serving_runtime(
        self,
        policy: Optional[BatchingPolicy] = None,
        num_workers: int = 2,
        certainty_trigger: Optional[ThresholdTrigger] = None,
        telemetry: Optional[ServingTelemetry] = None,
    ) -> ServingRuntime:
        """A micro-batching :class:`~repro.serving.runtime.ServingRuntime`
        serving this service's interactive single-request operations.

        Concurrent clients submit *single* requests; each micro-batch a worker
        takes is answered by :func:`data_plane_handlers` and logged as the
        corresponding ``*_batch`` plane function (one call and one activity-log
        entry per micro-batch, not per request).  Payloads:

        * ``"query_distribution"`` — an images array; resolves to the
          distribution dict of :meth:`query_distribution` (user plane).
        * ``"lookup_labeled_data"`` — an images array, or an
          ``(images, n_samples)`` tuple to override the sample count;
          resolves to the payload dict of :meth:`lookup_labeled_data`
          (user plane).
        * ``"certainty"`` — an images array; resolves to the dataset's
          cluster-assignment certainty (percent).  Certainty monitoring is a
          *system-plane* function, so its micro-batches are logged as
          ``system:certainty_batch`` in :meth:`activity_summary`.

        When ``certainty_trigger`` is given, every certainty result is fed to
        ``certainty_trigger.observe_many`` in *arrival order* — even when
        worker threads complete batches out of order — so the trigger fires
        exactly as it would under serial, unbatched monitoring.

        The runtime is returned unstarted; use it as a context manager or
        call :meth:`~repro.serving.runtime.ServingRuntime.start` /
        :meth:`~repro.serving.runtime.ServingRuntime.shutdown` around the
        service's own lifetime.
        """
        runtime = ServingRuntime(
            self.serving_handlers(),
            policy=policy,
            num_workers=num_workers,
            telemetry=telemetry,
            observers=(
                {"certainty": certainty_trigger.observe_many} if certainty_trigger is not None else None
            ),
        )
        return self.track_runtime(wire_index_controls(self.dms.fairds, runtime))

    def serving_handlers(self) -> Dict[str, Callable[[List[Any]], Sequence[Any]]]:
        """The batch handlers :meth:`serving_runtime` wires —
        :func:`data_plane_handlers`, each logged as its plane function —
        exposed so a facade can compose them with additional operations (e.g.
        the ``Deployment`` facade adds a hot-swappable ``"predict"``) into one
        :class:`~repro.serving.runtime.ServingRuntime`."""
        return {
            op: partial(self._invoke, *self._SERVING_ACTIVITY[op], function=handler)
            for op, handler in data_plane_handlers(self.dms.fairds).items()
        }

    def track_runtime(self, runtime: ServingRuntime) -> ServingRuntime:
        """Register ``runtime`` as serving this service, so its completion
        counts surface in :meth:`activity_summary` (one telemetry source)."""
        self._runtimes.add(runtime)
        return runtime

    # -- introspection ----------------------------------------------------------------------
    def activity_summary(self, include_serving: bool = True) -> Dict[str, int]:
        """Invocation counts per plane function, as ``{"plane:function": n}``.

        With ``include_serving`` (default), per-operation request counts of
        every serving runtime created by :meth:`serving_runtime` (or adopted
        via :meth:`track_runtime`) are folded in under ``"serving:<op>"``
        keys, so callers aggregating system health read one summary instead
        of walking runtimes themselves.  When the fitted index backend
        exposes scan statistics (e.g. the IVF index), its integer counters
        are folded in under ``"index:<stat>"`` keys from the single
        authoritative source — the index itself — so runtimes sharing one
        index are not double-counted.
        """
        with self._activity_lock:
            summary: Dict[str, int] = dict(self._activity_counts)
        if include_serving:
            for runtime in list(self._runtimes):
                for op, counts in runtime.telemetry_snapshot()["per_op"].items():
                    key = f"serving:{op}"
                    summary[key] = summary.get(key, 0) + counts["completed"]
        for stat, value in self.dms.fairds.index_stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                continue
            summary[f"index:{stat}"] = int(value)
        return summary
