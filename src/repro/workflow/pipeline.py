"""Step-chain orchestration engine with retries, timeouts, and durable checkpoints.

A :class:`Pipeline` is an ordered list of named :class:`PipelineStep` s that
share one context dict.  :meth:`Pipeline.run` executes them in declaration
order on the calling thread, so Ctrl-C lands directly in the running step.

Fault tolerance is per step:

* ``retries`` re-runs a failed attempt (with an optional ``retry_delay_s``
  backoff) before the step is declared failed;
* ``timeout_s`` bounds one attempt's wall-clock time — a stuck attempt raises
  :class:`~repro.utils.errors.StepTimeoutError` (which counts as a failed
  attempt and is therefore retriable);
* a failed step marks every later step ``skipped``.

Durability: give the pipeline a :class:`CheckpointStore` (a thin layer over a
:class:`~repro.storage.documentdb.DocumentDB` collection) and call
:meth:`Pipeline.run` with a ``run_id``.  Every completed step's output is
persisted under ``(pipeline, run_id, step)``; re-running the same ``run_id``
— after a crash, or from a different process via
:meth:`~repro.storage.documentdb.DocumentDB.save` /
:meth:`~repro.storage.documentdb.DocumentDB.load` — restores the longest
checkpointed prefix of the chain into the context and executes the rest.
Steps with side effects that must re-apply on resume (e.g. swapping the live
serving model) opt out with ``checkpoint=False``; such a step re-runs where
it stands and does not end the restored prefix.

Checkpointing is **at-least-once**: a checkpoint is written after the step
completes, so a crash landing exactly between the two re-executes the step
on resume.  Steps whose side effects must not duplicate (e.g. registering a
model) should therefore be idempotent — keyed on the run id, like the
continual-learning promote step — or opt out of checkpointing entirely.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import default_registry, internal_errors
from repro.observability.tracing import Span, Tracer
from repro.storage.documentdb import Collection, DocumentDB
from repro.utils.errors import ConfigurationError, StepTimeoutError
from repro.utils.logging import get_logger

logger = get_logger("repro.workflow.pipeline")

#: Step lifecycle states recorded in :class:`PipelineResult.statuses`.
PENDING = "pending"
COMPLETED = "completed"
RESUMED = "resumed"
FAILED = "failed"
SKIPPED = "skipped"

#: Reserved context key: names of the steps restored from checkpoints (set
#: only on checkpointed runs, i.e. when both a run_id and a store are given).
RESUMED_CONTEXT_KEY = "pipeline_resumed"


@dataclass
class PipelineStep:
    """One link of the chain.

    ``fn`` receives the shared context dict; its return value is stored under
    ``output_key`` (when given) once the step completes, and — when the run is
    checkpointed — persisted so a resumed run can restore it without
    re-executing the step.  Steps that mutate external state which must be
    re-applied after a crash should set ``checkpoint=False``.
    """

    name: str
    fn: Callable[[Dict[str, Any]], Any]
    output_key: Optional[str] = None
    retries: int = 0
    retry_delay_s: float = 0.0
    timeout_s: Optional[float] = None
    checkpoint: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("pipeline steps must be named")
        if self.retries < 0:
            raise ConfigurationError("retries must be non-negative")
        if self.retry_delay_s < 0:
            raise ConfigurationError("retry_delay_s must be non-negative")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive when set")


@dataclass
class Checkpoint:
    """A persisted record of one completed step of one run."""

    step: str
    has_output: bool
    value: Any = None


class CheckpointStore:
    """Persists per-step completion records in a document collection.

    Keyed on ``(pipeline, run_id, step)``; the step's output value (when it
    has one) travels as the document payload through the database codec, so
    numpy arrays, models, and lookup results all round-trip.  Because the
    backing :class:`DocumentDB` supports ``save``/``load``, checkpoints
    survive process death.
    """

    def __init__(self, db: Optional[DocumentDB] = None, collection: str = "pipeline_checkpoints"):
        self.db = db or DocumentDB()
        self.collection_name = collection
        self.collection.create_index("run_id")

    @property
    def collection(self) -> Collection:
        return self.db.collection(self.collection_name)

    def record(self, pipeline: str, run_id: str, step: str,
               value: Any = None, has_output: bool = False) -> str:
        """Upsert the checkpoint of ``step`` for ``(pipeline, run_id)``."""
        return self.collection.upsert_one(
            {"pipeline": pipeline, "run_id": run_id, "step": step},
            {"has_output": bool(has_output), "completed_at": time.time()},
            # Wrap in a tuple so a legitimate None output is distinguishable
            # from "no payload stored".
            payload=(value,) if has_output else None,
        )

    def completed(self, pipeline: str, run_id: str) -> Dict[str, Checkpoint]:
        """All recorded checkpoints of one run, keyed by step name."""
        docs = self.collection.find(
            {"pipeline": pipeline, "run_id": run_id}, decode_payload=True
        )
        out: Dict[str, Checkpoint] = {}
        for doc in docs:
            has_output = bool(doc.get("has_output")) and "payload" in doc
            value = doc["payload"][0] if has_output else None
            out[doc["step"]] = Checkpoint(step=doc["step"], has_output=has_output, value=value)
        return out

    def count(self, pipeline: str, run_id: str) -> int:
        """How many checkpoints one run has recorded (no payload decoding)."""
        return self.collection.count({"pipeline": pipeline, "run_id": run_id})

    def clear(self, pipeline: str, run_id: Optional[str] = None) -> int:
        """Delete the checkpoints of one run (or of every run of a pipeline)."""
        query: Dict[str, Any] = {"pipeline": pipeline}
        if run_id is not None:
            query["run_id"] = run_id
        return self.collection.delete_many(query)


@dataclass
class PipelineResult:
    """Outcome of one :meth:`Pipeline.run`."""

    context: Dict[str, Any]
    statuses: Dict[str, str] = field(default_factory=dict)
    step_times: Dict[str, float] = field(default_factory=dict)
    step_attempts: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, BaseException] = field(default_factory=dict)
    #: Steps restored from checkpoints instead of executed, in chain order.
    resumed: List[str] = field(default_factory=list)
    #: The step names in declaration (= execution) order.
    order: List[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return all(s in (COMPLETED, RESUMED) for s in self.statuses.values())

    @property
    def failed_steps(self) -> List[str]:
        return [name for name in self.order if self.statuses.get(name) == FAILED]

    @property
    def skipped_steps(self) -> List[str]:
        return [name for name in self.order if self.statuses.get(name) == SKIPPED]

    @property
    def total_time(self) -> float:
        return float(sum(self.step_times.values()))


class Pipeline:
    """A chain of steps executed in order with checkpointed resume."""

    def __init__(
        self,
        name: str,
        steps: Optional[Sequence[PipelineStep]] = None,
        checkpoints: Optional[CheckpointStore] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not name:
            raise ConfigurationError("pipeline must have a name")
        self.name = name
        self.steps: List[PipelineStep] = list(steps or [])
        self.checkpoints = checkpoints
        #: Optional tracer: each (sampled) run gets a ``pipeline.run`` root
        #: span with one ``pipeline.step.<name>`` child per executed step;
        #: steps' own ``trace_span`` instrumentation nests underneath.
        self.tracer = tracer

    # -- construction ------------------------------------------------------------
    def add_step(
        self,
        name: str,
        fn: Callable[[Dict[str, Any]], Any],
        output_key: Optional[str] = None,
        retries: int = 0,
        retry_delay_s: float = 0.0,
        timeout_s: Optional[float] = None,
        checkpoint: bool = True,
    ) -> "Pipeline":
        """Append a step to the chain; returns ``self`` for chaining."""
        self.steps.append(
            PipelineStep(
                name=name, fn=fn, output_key=output_key,
                retries=retries, retry_delay_s=retry_delay_s, timeout_s=timeout_s,
                checkpoint=checkpoint,
            )
        )
        return self

    def step(self, name: str) -> PipelineStep:
        """Look up a step by name."""
        for step in self.steps:
            if step.name == name:
                return step
        raise ConfigurationError(f"pipeline {self.name!r} has no step {name!r}")

    # -- validation --------------------------------------------------------------
    def validate(self) -> List[str]:
        """Check the chain and return its step names in execution order.

        Raises :class:`ConfigurationError` on duplicate step names or a step
        writing the reserved :data:`RESUMED_CONTEXT_KEY`.
        """
        order: List[str] = []
        for step in self.steps:
            if step.name in order:
                raise ConfigurationError(f"duplicate step name {step.name!r}")
            if step.output_key == RESUMED_CONTEXT_KEY:
                raise ConfigurationError(
                    f"output_key {RESUMED_CONTEXT_KEY!r} is reserved for the engine"
                )
            order.append(step.name)
        return order

    # -- execution ---------------------------------------------------------------
    def run(
        self,
        initial_context: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
        raise_on_error: bool = False,
    ) -> PipelineResult:
        """Execute the chain on the calling thread.

        With a ``run_id`` and a configured :class:`CheckpointStore`, the
        longest prefix of checkpointed steps is *resumed* (their outputs are
        restored into the context, they are not re-executed); a step declared
        ``checkpoint=False`` inside that prefix re-runs where it stands.  The
        reserved context key :data:`RESUMED_CONTEXT_KEY` then holds the
        resumed step names, so re-running steps can tell whether their
        upstream artifacts came from checkpoints of a crashed run or were
        produced fresh (the key is absent on non-checkpointed runs, and may
        not be used as an ``output_key``).  When ``raise_on_error`` is set the
        failing step's exception is re-raised once the rest of the chain has
        been marked skipped.
        """
        order = self.validate()
        context: Dict[str, Any] = dict(initial_context or {})
        result = PipelineResult(context=context, order=order)
        result.statuses = {name: PENDING for name in order}
        checkpointed = run_id is not None and self.checkpoints is not None

        if checkpointed:
            records = self.checkpoints.completed(self.name, run_id)
            for step in self.steps:
                if not step.checkpoint:
                    continue  # re-runs by design; its checkpointed successors stay valid
                entry = records.get(step.name)
                if entry is None:
                    break
                result.statuses[step.name] = RESUMED
                result.resumed.append(step.name)
                if step.output_key is not None and entry.has_output:
                    context[step.output_key] = entry.value
            context[RESUMED_CONTEXT_KEY] = list(result.resumed)
        if result.resumed:
            logger.info("pipeline %r run %r: resumed %d/%d steps from checkpoints",
                        self.name, run_id, len(result.resumed), len(order))

        trace_root: Optional[Span] = None
        if self.tracer is not None:
            trace_root = self.tracer.start_trace(
                "pipeline.run", pipeline=self.name,
                run_id=run_id if run_id is not None else "",
                steps=len(order), resumed=len(result.resumed),
            )
        registry = default_registry()
        m_steps = registry.counter(
            "repro_pipeline_steps_total",
            "Workflow pipeline steps by terminal status",
            ("pipeline", "status"),
        )
        m_step_seconds = registry.histogram(
            "repro_pipeline_step_seconds",
            "Wall-clock duration of executed workflow pipeline steps",
            ("pipeline", "step"),
        )

        try:
            for step in self.steps:
                name = step.name
                if result.statuses[name] == RESUMED:
                    continue
                if result.errors:
                    result.statuses[name] = SKIPPED
                    m_steps.labels(pipeline=self.name, status=SKIPPED).inc()
                    continue
                value, attempts, elapsed, error = self._run_step(step, context, trace_root)
                result.step_attempts[name] = attempts
                result.step_times[name] = elapsed
                result.statuses[name] = FAILED if error is not None else COMPLETED
                m_steps.labels(pipeline=self.name, status=result.statuses[name]).inc()
                m_step_seconds.labels(pipeline=self.name, step=name).observe(elapsed)
                if error is not None:
                    result.errors[name] = error
                    logger.warning("pipeline %r step %r failed after %d attempt(s): %s",
                                   self.name, name, attempts, error)
                    continue
                if step.output_key is not None:
                    context[step.output_key] = value
                if checkpointed and step.checkpoint:
                    try:
                        self.checkpoints.record(
                            self.name, run_id, name,
                            value=value if step.output_key is not None else None,
                            has_output=step.output_key is not None,
                        )
                    except Exception:
                        # Durability degrades (the step re-runs on resume) but
                        # this run proceeds with the in-memory output — e.g. an
                        # unpicklable step output must not crash the chain
                        # after the step succeeded.
                        logger.exception(
                            "pipeline %r step %r: checkpoint write failed; "
                            "the step will re-run on resume", self.name, name,
                        )
                        internal_errors(registry, "pipeline.checkpoint").inc()
        finally:
            if trace_root is not None:
                self.tracer.end(
                    trace_root, status="ok" if result.succeeded else "error"
                )

        if raise_on_error and result.failed_steps:
            raise result.errors[result.failed_steps[0]]
        return result

    # -- one step ----------------------------------------------------------------
    def _run_step(
        self, step: PipelineStep, context: Dict[str, Any],
        trace_root: Optional[Span] = None,
    ) -> Tuple[Any, int, float, Optional[BaseException]]:
        """Run one step with retries; never raises for ordinary exceptions.

        ``KeyboardInterrupt``/``SystemExit`` are *not* absorbed — they
        propagate out of :meth:`run`.

        With a sampled ``trace_root``, the whole step (all attempts) runs
        under an activated ``pipeline.step.<name>`` span, so the step body's
        own ``trace_span`` calls nest under it.
        """
        span = None
        if trace_root is not None:
            span = self.tracer.start_span(
                f"pipeline.step.{step.name}", trace_root, step=step.name
            )
        start = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                if span is not None:
                    with self.tracer.activate(span):
                        value = self._attempt(step, context)
                else:
                    value = self._attempt(step, context)
                if span is not None:
                    span.set_attribute("attempts", attempts)
                    self.tracer.end(span)
                return value, attempts, time.perf_counter() - start, None
            except Exception as exc:
                if attempts > step.retries:
                    if span is not None:
                        span.set_attribute("attempts", attempts)
                        self.tracer.end(span, status="error")
                    return None, attempts, time.perf_counter() - start, exc
                if step.retry_delay_s > 0:
                    time.sleep(step.retry_delay_s)

    @staticmethod
    def _attempt(step: PipelineStep, context: Dict[str, Any]) -> Any:
        """One attempt of ``step.fn``, bounded by ``timeout_s`` when set.

        Python threads cannot be killed, so a timed-out attempt is abandoned
        (its daemon thread may still be running) and reported as
        :class:`StepTimeoutError`; a retry starts a fresh attempt.
        """
        if step.timeout_s is None:
            return step.fn(context)
        outcome: Dict[str, Any] = {}
        finished = threading.Event()

        def target() -> None:
            try:
                outcome["value"] = step.fn(context)
            except BaseException as exc:  # noqa: BLE001 — relayed to the caller below
                outcome["error"] = exc
            finally:
                finished.set()

        worker = threading.Thread(target=target, daemon=True, name=f"step-{step.name}")
        worker.start()
        if not finished.wait(step.timeout_s):
            raise StepTimeoutError(
                f"step {step.name!r} exceeded its timeout of {step.timeout_s} s"
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]
