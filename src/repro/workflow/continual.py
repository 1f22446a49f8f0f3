"""The closed continual-learning loop as a checkpointed step chain.

This is the paper's end-to-end story as one subsystem instead of example
scripts: monitor incoming scans, detect degradation/drift, pseudo-label the
offending scan from the historical store, retrain (fine-tune or from scratch
via fairMS), gate on validation, promote the new model into the Zoo under a
version tag, and hot-swap it into the live serving runtime — all while
requests keep flowing.

One :meth:`ContinualLearningPipeline.process_scan` call runs this chain::

    monitor ──▶ refresh ──▶ pseudo_label ──▶ train ──▶ validate ──▶ promote ──▶ hot_swap

on the :class:`~repro.workflow.pipeline.Pipeline` engine, so every stage gets
per-step retries/timeouts and — when a
:class:`~repro.workflow.pipeline.CheckpointStore` is configured — a crashed
cycle resumes from its last completed step (an expensive training run is
never repeated).  The ``hot_swap`` step is deliberately *not* checkpointed:
a resumed run re-applies the swap, because the live
:class:`~repro.serving.hot_swap.ModelHandle` does not survive the crash.

Monitoring is pluggable: the default signal is fairDS cluster-assignment
certainty with a :class:`~repro.monitoring.triggers.CertaintyTrigger`
(paper Fig. 16); pass ``signal_fn`` + a ``direction="above"``
:class:`~repro.monitoring.triggers.ThresholdTrigger` to trigger on a
drift-detector's prediction-error feed instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.fairdms import FairDMS
from repro.monitoring.triggers import ThresholdTrigger
from repro.observability.tracing import Tracer
from repro.serving.batcher import BatchingPolicy
from repro.serving.hot_swap import ModelHandle, versioned_handler
from repro.serving.runtime import ServingRuntime
from repro.utils.errors import ConfigurationError, StorageError
from repro.utils.logging import get_logger
from repro.workflow.pipeline import COMPLETED, CheckpointStore, Pipeline, PipelineResult

logger = get_logger("repro.workflow.continual")

#: Stable pipeline name — together with a ``run_id`` it keys the checkpoints.
PIPELINE_NAME = "continual-learning"


@dataclass
class CycleReport:
    """What one monitoring/retraining cycle did."""

    run_id: str
    signal: float
    triggered: bool
    strategy: Optional[str]
    val_loss: Optional[float]
    gate_passed: Optional[bool]
    promoted_version: Optional[str]
    model_id: Optional[str]
    swapped: bool
    statuses: Dict[str, str]
    resumed: List[str]
    result: PipelineResult


class ContinualLearningPipeline:
    """Drift-triggered retraining wired into a live serving runtime.

    Parameters
    ----------
    dms:
        A bootstrapped :class:`~repro.core.fairdms.FairDMS` (historical store
        fitted, Zoo holding at least the initial model).
    handle:
        The :class:`~repro.serving.hot_swap.ModelHandle` the serving handlers
        read; its version label should match the currently promoted Zoo tag
        (see :meth:`bootstrap_handle`).
    trigger:
        Fires a retraining cycle from the monitoring signal.  Defaults to
        the DMS's own ``certainty_trigger``, so continual-loop firings and
        :meth:`~repro.core.fairdms.FairDMS.update_model` firings share one
        history and cooldown window.
    signal_fn:
        Maps a scan (array of samples) to the scalar monitoring signal.
        Defaults to fairDS cluster-assignment certainty; supply a
        drift-detector error feed together with a ``direction="above"``
        trigger for error-based monitoring.
    checkpoints:
        Optional :class:`CheckpointStore`; enables crash-resume per cycle.
    refresh_on_trigger:
        When True (default), a firing trigger also refreshes the fairDS
        system plane (re-fit embedding + clustering from the accumulated
        store) before pseudo-labeling — the same step-2 behaviour as
        :meth:`~repro.core.fairdms.FairDMS.update_model`.  Pair with a
        trigger ``cooldown`` to dampen retraining storms while the refresh
        takes effect.
    tag:
        Zoo promotion tag naming the live model lineage.
    gate_factor:
        Validation gate: the candidate's best validation loss must not exceed
        ``gate_factor`` times the currently promoted model's recorded
        ``val_loss`` (when known).
    absolute_gate:
        Optional absolute validation-loss ceiling applied in addition.
    step_retries / step_timeout_s:
        Fault-tolerance knobs applied to every step of the cycle chain.
    """

    STEPS = ("monitor", "refresh", "pseudo_label", "train", "validate", "promote", "hot_swap")

    def __init__(
        self,
        dms: FairDMS,
        handle: ModelHandle,
        trigger: Optional[ThresholdTrigger] = None,
        signal_fn: Optional[Callable[[np.ndarray], float]] = None,
        checkpoints: Optional[CheckpointStore] = None,
        refresh_on_trigger: bool = True,
        tag: str = "latest",
        gate_factor: float = 2.0,
        absolute_gate: Optional[float] = None,
        step_retries: int = 0,
        step_timeout_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ):
        if gate_factor <= 0:
            raise ConfigurationError("gate_factor must be positive")
        if absolute_gate is not None and absolute_gate <= 0:
            raise ConfigurationError("absolute_gate must be positive when set")
        self.dms = dms
        self.handle = handle
        self.trigger = trigger if trigger is not None else dms.certainty_trigger
        self.signal_fn = signal_fn or (lambda scan: float(dms.fairds.certainty(scan)))
        self.checkpoints = checkpoints
        self.refresh_on_trigger = bool(refresh_on_trigger)
        self.tag = tag
        self.gate_factor = float(gate_factor)
        self.absolute_gate = absolute_gate
        self.step_retries = int(step_retries)
        self.step_timeout_s = step_timeout_s
        #: Forwarded into every cycle's :class:`Pipeline`, so each retraining
        #: cycle becomes one sampled ``pipeline.run`` trace with per-step spans.
        self.tracer = tracer

    # -- bootstrap helpers --------------------------------------------------------
    @staticmethod
    def bootstrap_handle(dms: FairDMS, tag: str = "latest") -> ModelHandle:
        """A :class:`ModelHandle` loaded from the Zoo's promoted ``tag``.

        The handle carries the tag's recorded version label
        (:meth:`~repro.core.model_zoo.ModelZoo.promoted_version`), which is
        rollback-aware, so responses are stamped with the version that truly
        produced them.
        """
        zoo = dms.fairms.zoo
        model_id, version = zoo.promoted(tag)  # one atomic snapshot, no torn pair
        return ModelHandle(zoo.load_model(model_id), version=version)

    # -- serving ------------------------------------------------------------------
    PREDICT_OP = "predict"

    def serving_handlers(self) -> Dict[str, Callable[[List[Any]], Any]]:
        """Batch handlers serving predictions from the live (swappable) model.

        Each response is a :class:`~repro.serving.hot_swap.VersionedResult`
        stamped with the model version that produced it.
        """
        return {self.PREDICT_OP: versioned_handler(self.handle, self._predict_batch)}

    @staticmethod
    def _predict_batch(model, payloads: List[Any]) -> List[np.ndarray]:
        x = np.stack([np.asarray(p) for p in payloads])
        return list(model.predict(x))

    def runtime(
        self, policy: Optional[BatchingPolicy] = None, num_workers: int = 2
    ) -> ServingRuntime:
        """An unstarted :class:`ServingRuntime` serving the live model."""
        return ServingRuntime(self.serving_handlers(), policy=policy, num_workers=num_workers)

    # -- the cycle chain ----------------------------------------------------------
    @staticmethod
    def run_id_for(scan: np.ndarray) -> str:
        """The default run id of a scan: a digest of its content.

        Content-derived rather than counter-derived, so a process restarted
        after a crash resumes *this scan's* checkpoints when handed the same
        scan again — and can never pick up a different scan's stale ones.
        """
        scan = np.ascontiguousarray(scan)
        digest = hashlib.sha1(scan.tobytes() + str(scan.shape).encode()).hexdigest()
        return f"scan-{digest[:16]}"

    def build(self, scan: np.ndarray) -> Pipeline:
        """The step chain of one monitoring/retraining cycle over ``scan``.

        Exposed so callers can inspect or instrument individual steps before
        running with ``pipeline.run(run_id=...)``; most callers use
        :meth:`process_scan`, which also supplies the run id.
        """
        scan = np.asarray(scan)
        pipeline = Pipeline(PIPELINE_NAME, checkpoints=self.checkpoints, tracer=self.tracer)
        common = dict(retries=self.step_retries, timeout_s=self.step_timeout_s)
        # monitor mutates the stateful trigger, so like refresh/promote below
        # it gets retries but no timeout (a timed-out attempt's abandoned
        # thread could observe concurrently with its retry).
        pipeline.add_step("monitor", self._monitor_step(scan), output_key="monitor",
                          retries=self.step_retries)
        # refresh is its own (non-checkpointed: it mutates in-memory fairDS
        # state that does not survive a crash) step, so a transient refresh
        # failure retries/resumes without ever re-observing the trigger.  It
        # gets retries but NO timeout: a timed-out attempt's abandoned thread
        # would keep re-fitting shared fairDS state concurrently with its own
        # retry.
        pipeline.add_step("refresh", self._refresh_step, output_key="refresh",
                          checkpoint=False, retries=self.step_retries)
        pipeline.add_step("pseudo_label", self._label_step(scan), output_key="lookup", **common)
        pipeline.add_step("train", self._train_step, output_key="trained", **common)
        pipeline.add_step("validate", self._validate_step, output_key="validation", **common)
        # promote/hot_swap deliberately get NO timeout and NO retries: a
        # timed-out attempt's abandoned thread could still commit its Zoo
        # mutation and race a retry into duplicate promotions; these steps are
        # local and fast, so fault-tolerance knobs stay on the long-running
        # compute steps above.
        pipeline.add_step("promote", self._promote_step, output_key="promotion")
        # Not checkpointed: the swap mutates the in-memory handle, which does
        # not survive a crash — a resumed run must re-apply it.
        pipeline.add_step("hot_swap", self._swap_step, output_key="swap", checkpoint=False)
        return pipeline

    def process_scan(
        self, scan: np.ndarray, run_id: Optional[str] = None, raise_on_error: bool = True
    ) -> CycleReport:
        """Run one full cycle for an arriving scan.

        The common case — an in-distribution scan that does not fire the
        trigger — takes a fast path: one monitoring observation, no chain, no
        checkpoint traffic.  A firing trigger runs the full chain.  Re-invoking
        with the same ``run_id`` after a crash (and a configured checkpoint
        store) resumes from the last completed step instead of restarting;
        checkpoints of a fully successful cycle are cleared.  The default run
        id is :meth:`run_id_for` — a digest of the scan's content — so
        crash-resume also works across process restarts without the caller
        tracking ids.
        """
        scan = np.asarray(scan)
        run_id = run_id or self.run_id_for(scan)
        checkpointed = run_id if self.checkpoints is not None else None
        resuming = (
            checkpointed is not None
            and self.checkpoints.count(PIPELINE_NAME, run_id) > 0
        )
        initial_context: Dict[str, Any] = {"run_id": run_id}
        if not resuming:
            monitor = self._observe(scan)
            if not monitor["triggered"]:
                result = PipelineResult(context={"monitor": monitor},
                                        statuses={"monitor": COMPLETED},
                                        order=["monitor"])
                return self._report(run_id, result)
            if self.checkpoints is not None:
                # Persist the observation BEFORE anything can fail, so a
                # re-invoked run resumes it instead of observing again — a
                # second observation under an armed cooldown would report
                # triggered=False and permanently drop the drift event.
                self.checkpoints.record(PIPELINE_NAME, run_id, "monitor",
                                        value=monitor, has_output=True)
            else:
                # No durability configured: hand the observation to the chain's
                # monitor step in-memory instead.
                initial_context["monitor_pre"] = monitor
        pipeline = self.build(scan)
        result = pipeline.run(initial_context, run_id=checkpointed,
                              raise_on_error=raise_on_error)
        if result.succeeded and self.checkpoints is not None:
            self.checkpoints.clear(PIPELINE_NAME, run_id)
        report = self._report(run_id, result)
        if report.swapped:
            logger.info("cycle %s: %s promoted and serving (val_loss=%.4g)",
                        run_id, report.promoted_version, report.val_loss)
        return report

    # -- step bodies --------------------------------------------------------------
    def _observe(self, scan: np.ndarray) -> Dict[str, Any]:
        """One monitoring observation (the only place the trigger is fed)."""
        value = float(self.signal_fn(scan))
        return {"signal": value, "triggered": bool(self.trigger.observe(value))}

    def _monitor_step(self, scan: np.ndarray) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
        # The memo makes step retries observation-safe even for this pure-read
        # step (a flaky signal_fn that fails after observing would otherwise
        # consume a cooldown slot per retry).
        memo: Dict[str, Any] = {}

        def monitor(ctx: Dict[str, Any]) -> Dict[str, Any]:
            pre = ctx.get("monitor_pre")
            if pre is not None:
                return pre
            if "observation" not in memo:
                memo["observation"] = self._observe(scan)
            return memo["observation"]

        return monitor

    def _refresh_step(self, ctx: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if not ctx["monitor"]["triggered"] or not self.refresh_on_trigger:
            return None
        self.dms.fairds.refresh()
        return {"refreshed": True}

    def _label_step(self, scan: np.ndarray) -> Callable[[Dict[str, Any]], Any]:
        def pseudo_label(ctx: Dict[str, Any]):
            if not ctx["monitor"]["triggered"]:
                return None
            return self.dms.pseudo_label_batch([scan], label="continual")[0]

        return pseudo_label

    def _train_step(self, ctx: Dict[str, Any]):
        lookup = ctx.get("lookup")
        if lookup is None:
            return None
        return self.dms.train_on_lookup(lookup)

    def _validate_step(self, ctx: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        outcome = ctx.get("trained")
        if outcome is None:
            return None
        val_loss = float(outcome.history.best_val_loss)
        passed = np.isfinite(val_loss)
        if passed and self.absolute_gate is not None:
            passed = val_loss <= self.absolute_gate
        baseline = self._baseline_val_loss()
        if passed and baseline is not None:
            passed = val_loss <= self.gate_factor * baseline
        return {"val_loss": val_loss, "passed": bool(passed), "baseline": baseline}

    def _cycle_key(self, run_id: Optional[str]) -> Optional[str]:
        """Unique id of the current cycle attempt: the monitor checkpoint's
        document id (minted at cycle start, deleted when the cycle succeeds)."""
        if run_id is None or self.checkpoints is None:
            return None
        doc = self.checkpoints.collection.snapshot_one(
            {"pipeline": PIPELINE_NAME, "run_id": run_id, "step": "monitor"}
        )
        return doc["_id"] if doc is not None else None

    def _baseline_val_loss(self) -> Optional[float]:
        zoo = self.dms.fairms.zoo
        try:
            record = zoo.record(zoo.resolve(self.tag))
        except StorageError:
            return None
        value = record.metrics.get("val_loss")
        return float(value) if value is not None and np.isfinite(value) else None

    def _promote_step(self, ctx: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        validation = ctx.get("validation")
        if not validation or not validation["passed"]:
            return None
        outcome = ctx["trained"]
        lookup = ctx["lookup"]
        zoo = self.dms.fairms.zoo
        run_id = ctx.get("run_id")
        # The idempotency key must be unique per cycle *attempt*, not per scan
        # content: the monitor checkpoint's document id is minted when the
        # cycle starts and cleared on success, so a later cycle over the same
        # scan digest can never match a completed cycle's registration.
        cycle_key = self._cycle_key(run_id)
        if cycle_key is not None and "train" in ctx.get("pipeline_resumed", ()):
            # This is a resumed run serving the SAME training artifact (train
            # came from a checkpoint).  Idempotence across the crash window
            # between this step completing and its checkpoint landing: if
            # this cycle already registered a model (found by its cycle
            # metadata), reuse it instead of creating a duplicate Zoo entry
            # and a bogus promotion-history layer.
            existing = zoo.find(origin="continual", cycle=cycle_key)
            if existing:
                record = existing[-1]  # most recently registered for this cycle
                version = zoo.promoted_version_of(record.model_id, self.tag)
                if version is None:  # registered but never promoted: finish the job
                    version = zoo.promote(record.model_id, tag=self.tag)
                # A version found in the lineage (history or rolled back)
                # means this cycle promoted before the crash — report the
                # original label, do NOT promote the older model again.
                return {"model_id": record.model_id, "version": version}
        record = self.dms.fairms.register(
            outcome.model,
            lookup.input_distribution,
            metrics={"val_loss": validation["val_loss"],
                     "epochs": float(outcome.history.epochs_run)},
            origin="continual",
            strategy=outcome.strategy,
            run=run_id,
            cycle=cycle_key,
        )
        version = zoo.promote(record.model_id, tag=self.tag)
        return {"model_id": record.model_id, "version": version}

    def _swap_step(self, ctx: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        promotion = ctx.get("promotion")
        if promotion is None:
            return None
        # Check-then-swap under the handle's swap lock: a concurrent cycle's
        # newer swap cannot slip between the lineage check and our swap and
        # then be clobbered by this (older) model.
        with self.handle.locked():
            current_id, _ = self.dms.fairms.zoo.promoted(self.tag)
            if current_id != promotion["model_id"]:
                # This cycle's promotion was superseded while the run was down
                # (resume after a crash): the live lineage has moved on, so
                # swapping the older model back in would regress serving.
                logger.info("cycle promotion %s superseded by %s; swap skipped",
                            promotion["version"], current_id)
                return None
            # Load the promoted artifact from the Zoo (rather than reusing the
            # in-memory trained model) so a resumed run swaps in exactly what
            # was promoted, and what a rollback would restore.
            model = self.dms.fairms.zoo.load_model(promotion["model_id"])
            old = self.handle.swap(model, promotion["version"])
        return {"from": old.version, "to": promotion["version"]}

    # -- reporting ----------------------------------------------------------------
    def _report(self, run_id: str, result: PipelineResult) -> CycleReport:
        ctx = result.context
        monitor = ctx.get("monitor") or {}
        trained = ctx.get("trained")
        validation = ctx.get("validation")
        promotion = ctx.get("promotion")
        return CycleReport(
            run_id=run_id,
            signal=float(monitor.get("signal", float("nan"))),
            triggered=bool(monitor.get("triggered", False)),
            strategy=trained.strategy if trained is not None else None,
            val_loss=validation["val_loss"] if validation else None,
            gate_passed=validation["passed"] if validation else None,
            promoted_version=promotion["version"] if promotion else None,
            model_id=promotion["model_id"] if promotion else None,
            swapped=ctx.get("swap") is not None,
            statuses=dict(result.statuses),
            resumed=list(result.resumed),
            result=result,
        )
