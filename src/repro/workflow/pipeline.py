"""Async DAG orchestration engine with retries, timeouts, and durable checkpoints.

A :class:`Pipeline` is a set of named :class:`PipelineStep` nodes connected by
``depends_on`` edges.  Ready steps (all dependencies completed) execute
concurrently on a thread pool, so independent branches of the graph — e.g.
pseudo-labeling one scan while the previous scan's model is still training —
overlap instead of serialising.

Fault tolerance is per step:

* ``retries`` re-runs a failed attempt (with an optional ``retry_delay_s``
  backoff) before the step is declared failed;
* ``timeout_s`` bounds one attempt's wall-clock time — a stuck attempt raises
  :class:`~repro.utils.errors.StepTimeoutError` (which counts as a failed
  attempt and is therefore retriable);
* a failed step fails only its *transitive dependents* (marked ``skipped``);
  independent branches keep running to completion.

Durability: give the pipeline a :class:`CheckpointStore` (a thin layer over a
:class:`~repro.storage.documentdb.DocumentDB` collection) and call
:meth:`Pipeline.run` with a ``run_id``.  Every completed step's output is
persisted under ``(pipeline, run_id, step)``; re-running the same ``run_id``
— after a crash, or from a different process via
:meth:`~repro.storage.documentdb.DocumentDB.save` /
:meth:`~repro.storage.documentdb.DocumentDB.load` — restores those outputs
into the context and re-executes only the steps that never completed.
Steps with side effects that must re-apply on resume (e.g. swapping the live
serving model) opt out with ``checkpoint=False``.

Checkpointing is **at-least-once**: a checkpoint is written after the step
completes, so a crash landing exactly between the two re-executes the step
on resume.  Steps whose side effects must not duplicate (e.g. registering a
model) should therefore be idempotent — keyed on the run id, like the
continual-learning promote step — or opt out of checkpointing entirely.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import default_registry
from repro.observability.tracing import Span, Tracer
from repro.storage.documentdb import Collection, DocumentDB
from repro.utils.errors import ConfigurationError, StepTimeoutError
from repro.utils.logging import get_logger

logger = get_logger("repro.workflow.pipeline")

#: Step lifecycle states recorded in :class:`PipelineResult.statuses`.
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
RESUMED = "resumed"
FAILED = "failed"
SKIPPED = "skipped"

#: Reserved context key: names of the steps restored from checkpoints (set
#: only on checkpointed runs, i.e. when both a run_id and a store are given).
RESUMED_CONTEXT_KEY = "pipeline_resumed"


@dataclass
class PipelineStep:
    """One node of the DAG.

    ``fn`` receives the shared context dict; its return value is stored under
    ``output_key`` (when given) once the step completes, and — when the run is
    checkpointed — persisted so a resumed run can restore it without
    re-executing the step.  Steps that mutate external state which must be
    re-applied after a crash should set ``checkpoint=False``.
    """

    name: str
    fn: Callable[[Dict[str, Any]], Any]
    depends_on: Tuple[str, ...] = ()
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
        self.depends_on = tuple(self.depends_on)
        if self.name in self.depends_on:
            raise ConfigurationError(f"step {self.name!r} cannot depend on itself")


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
    #: Steps restored from checkpoints instead of executed, in topological order.
    resumed: List[str] = field(default_factory=list)
    #: Topological order the engine used (deterministic for a given pipeline).
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
    """A DAG of steps executed concurrently with checkpointed resume."""

    def __init__(
        self,
        name: str,
        steps: Optional[Sequence[PipelineStep]] = None,
        max_workers: int = 4,
        checkpoints: Optional[CheckpointStore] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not name:
            raise ConfigurationError("pipeline must have a name")
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.name = name
        self.steps: List[PipelineStep] = list(steps or [])
        self.max_workers = int(max_workers)
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
        depends_on: Sequence[str] = (),
        output_key: Optional[str] = None,
        retries: int = 0,
        retry_delay_s: float = 0.0,
        timeout_s: Optional[float] = None,
        checkpoint: bool = True,
    ) -> "Pipeline":
        """Add a step; returns ``self`` for chaining."""
        self.steps.append(
            PipelineStep(
                name=name, fn=fn, depends_on=tuple(depends_on), output_key=output_key,
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
        """Check the graph and return a deterministic topological order.

        Raises :class:`ConfigurationError` on duplicate step names, unknown
        dependencies, or cycles.
        """
        names = [s.name for s in self.steps]
        seen: set = set()
        for name in names:
            if name in seen:
                raise ConfigurationError(f"duplicate step name {name!r}")
            seen.add(name)
        for step in self.steps:
            unknown = set(step.depends_on) - seen
            if unknown:
                raise ConfigurationError(
                    f"step {step.name!r} depends on unknown steps: {sorted(unknown)}"
                )
            if step.output_key == RESUMED_CONTEXT_KEY:
                raise ConfigurationError(
                    f"output_key {RESUMED_CONTEXT_KEY!r} is reserved for the engine"
                )
        # Kahn's algorithm; ties broken by declaration order so the schedule
        # (and therefore failure attribution) is reproducible.
        indegree = {s.name: len(set(s.depends_on)) for s in self.steps}
        dependents: Dict[str, List[str]] = defaultdict(list)
        for step in self.steps:
            for dep in set(step.depends_on):
                dependents[dep].append(step.name)
        order: List[str] = []
        ready = [name for name in names if indegree[name] == 0]
        while ready:
            name = ready.pop(0)
            order.append(name)
            for child in dependents[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(names):
            cycle = sorted(set(names) - set(order))
            raise ConfigurationError(f"pipeline {self.name!r} has a dependency cycle among {cycle}")
        return order

    # -- execution ---------------------------------------------------------------
    def run(
        self,
        initial_context: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
        raise_on_error: bool = False,
    ) -> PipelineResult:
        """Execute the DAG.

        With a ``run_id`` and a configured :class:`CheckpointStore`, steps
        already checkpointed for that run are *resumed* (their outputs are
        restored into the context, they are not re-executed) — except steps
        declared with ``checkpoint=False``, which always re-run.  The
        reserved context key :data:`RESUMED_CONTEXT_KEY` then holds the
        resumed step names (topological order), so re-running steps can tell
        whether their upstream artifacts came from checkpoints of a crashed
        run or were produced fresh (the key is absent on non-checkpointed
        runs, and may not be used as an ``output_key``).  When ``raise_on_error`` is set the first failing
        step's exception is re-raised after the rest of the graph has
        settled.
        """
        order = self.validate()
        by_name = {s.name: s for s in self.steps}
        context: Dict[str, Any] = dict(initial_context or {})
        result = PipelineResult(context=context, order=order)
        result.statuses = {name: PENDING for name in order}
        ctx_lock = threading.Lock()

        deps_left = {s.name: set(s.depends_on) for s in self.steps}
        dependents: Dict[str, List[str]] = defaultdict(list)
        for step in self.steps:
            for dep in set(step.depends_on):
                dependents[dep].append(step.name)

        # Restore checkpoints (topological order, so a step only resumes when
        # every dependency resumed too — a checkpoint above a re-running
        # dependency is stale and is re-executed instead).  A dependency
        # declared ``checkpoint=False`` re-runs *by design* (side-effect
        # re-application); it does not make downstream checkpoints stale, so
        # it counts as resume-compatible when its own dependencies do.
        checkpointed: Dict[str, Checkpoint] = {}
        if run_id is not None and self.checkpoints is not None:
            checkpointed = self.checkpoints.completed(self.name, run_id)
        resumed: set = set()
        resume_ok: set = set()  # resumed steps + re-run-by-design steps above them
        for name in order:
            step = by_name[name]
            if any(dep not in resume_ok for dep in step.depends_on):
                continue
            if not step.checkpoint:
                resume_ok.add(name)  # will execute, but doesn't block resume below
                continue
            entry = checkpointed.get(name)
            if entry is None:
                continue
            resumed.add(name)
            resume_ok.add(name)
            result.statuses[name] = RESUMED
            result.resumed.append(name)
            if step.output_key is not None and entry.has_output:
                context[step.output_key] = entry.value
        # Rewire the graph around resumed steps.  A resumed step satisfies its
        # dependents immediately — EXCEPT that any re-running ancestor
        # reachable through a chain of resumed steps (a ``checkpoint=False``
        # step re-applying its side effect) remains a real prerequisite: its
        # still-pending transitive dependents must run after it, and must be
        # skipped if it fails, exactly as on a fresh run.
        rerun_upstream: Dict[str, set] = {}
        for name in order:
            if name not in resumed:
                continue
            ancestors: set = set()
            for dep in by_name[name].depends_on:
                if dep in resumed:
                    ancestors |= rerun_upstream.get(dep, set())
                else:
                    ancestors.add(dep)  # a step that will (re-)execute
            rerun_upstream[name] = ancestors
            for child in list(dependents[name]):
                deps_left[child].discard(name)
                if child in resumed:
                    continue
                for ancestor in ancestors:
                    if child not in dependents[ancestor]:
                        deps_left[child].add(ancestor)
                        dependents[ancestor].append(child)
        if run_id is not None and self.checkpoints is not None:
            context[RESUMED_CONTEXT_KEY] = [name for name in order if name in resumed]
        if resumed:
            logger.info("pipeline %r run %r: resumed %d/%d steps from checkpoints",
                        self.name, run_id, len(resumed), len(order))

        trace_root: Optional[Span] = None
        if self.tracer is not None:
            trace_root = self.tracer.start_trace(
                "pipeline.run", pipeline=self.name,
                run_id=run_id if run_id is not None else "",
                steps=len(order), resumed=len(resumed),
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

        def handle_completion(name: str, outcome: Tuple) -> List[str]:
            """Record one step's outcome; returns newly ready step names."""
            step = by_name[name]
            value, attempts, elapsed, error = outcome
            result.step_attempts[name] = attempts
            result.step_times[name] = elapsed
            m_steps.labels(
                pipeline=self.name, status=FAILED if error is not None else COMPLETED
            ).inc()
            m_step_seconds.labels(pipeline=self.name, step=name).observe(elapsed)
            if error is not None:
                result.statuses[name] = FAILED
                result.errors[name] = error
                logger.warning("pipeline %r step %r failed after %d attempt(s): %s",
                               self.name, name, attempts, error)
                # Fail only the transitive dependents; siblings continue.
                stack = list(dependents[name])
                while stack:
                    child = stack.pop()
                    if result.statuses[child] == PENDING:
                        result.statuses[child] = SKIPPED
                        m_steps.labels(pipeline=self.name, status=SKIPPED).inc()
                        stack.extend(dependents[child])
                return []
            result.statuses[name] = COMPLETED
            if step.output_key is not None:
                with ctx_lock:
                    context[step.output_key] = value
            if run_id is not None and self.checkpoints is not None and step.checkpoint:
                try:
                    self.checkpoints.record(
                        self.name, run_id, name,
                        value=value if step.output_key is not None else None,
                        has_output=step.output_key is not None,
                    )
                except Exception:
                    # Durability degrades (the step re-runs on resume) but
                    # this run proceeds with the in-memory output — e.g. an
                    # unpicklable step output must not crash the whole graph
                    # after the step succeeded.
                    logger.exception(
                        "pipeline %r step %r: checkpoint write failed; "
                        "the step will re-run on resume", self.name, name,
                    )
            ready: List[str] = []
            for child in dependents[name]:
                deps_left[child].discard(name)
                if not deps_left[child] and result.statuses[child] == PENDING:
                    ready.append(child)
            return ready

        initial_ready = [name for name in order
                         if name not in resumed and not deps_left[name]]
        try:
            if self.max_workers == 1:
                # Serial pipelines (``max_workers=1``) execute on the
                # calling thread: no pool hand-off, and Ctrl-C lands directly in
                # the running step instead of blocking on a pool shutdown.
                queue: List[str] = list(initial_ready)
                while queue:
                    name = queue.pop(0)
                    result.statuses[name] = RUNNING
                    queue.extend(handle_completion(
                        name, self._run_step(by_name[name], context, trace_root)
                    ))
            else:
                futures: Dict[Future, str] = {}
                pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix=f"pipeline-{self.name}"
                )
                try:
                    for name in initial_ready:
                        result.statuses[name] = RUNNING
                        futures[pool.submit(
                            self._run_step, by_name[name], context, trace_root
                        )] = name
                    while futures:
                        done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                        for fut in done:
                            name = futures.pop(fut)
                            for child in handle_completion(name, fut.result()):
                                result.statuses[child] = RUNNING
                                futures[pool.submit(
                                    self._run_step, by_name[child], context, trace_root
                                )] = child
                    pool.shutdown(wait=True)
                except BaseException:
                    # Best effort on interrupt: stop feeding work and don't block
                    # on steps already running (they cannot be killed).
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
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
        propagate through the future into the orchestrating thread.

        With a sampled ``trace_root``, the whole step (all attempts) runs
        under a ``pipeline.step.<name>`` span activated on this worker
        thread, so the step body's own ``trace_span`` calls nest under it.
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
