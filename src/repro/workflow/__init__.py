"""Orchestration substrate standing in for Globus Flows and Globus Transfer.

The paper's end-to-end deployment uses Globus Flows to define the workflow,
funcX as a serverless function-execution fabric, and Globus Transfer to move
data and models between the experimental facility and the compute cluster.
Locally the workflow is a step-chain engine, the plane functions are plain
calls (:class:`repro.core.planes.FairDMSService`), and the transfer is
modelled:

* :class:`~repro.workflow.pipeline.Pipeline` — an ordered chain of named
  steps run on the calling thread, with per-step retries and timeouts and
  checkpointed resume through a
  :class:`~repro.workflow.pipeline.CheckpointStore` persisted in the document
  database.
* :class:`~repro.workflow.continual.ContinualLearningPipeline` — the closed
  monitor → refresh → pseudo-label → train → validate → promote → hot-swap
  loop built on the engine (imported lazily; also available as
  ``repro.workflow.continual``).
* :class:`~repro.workflow.transfer.TransferService` — models a WAN link with
  latency + bandwidth and "transfers" byte payloads, recording the simulated
  durations that feed the end-to-end timing breakdown of Fig. 15.
"""

from repro.workflow.pipeline import (
    Checkpoint,
    CheckpointStore,
    Pipeline,
    PipelineResult,
    PipelineStep,
)
from repro.workflow.transfer import TransferService, TransferRecord

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "ContinualLearningPipeline",
    "CycleReport",
    "Pipeline",
    "PipelineResult",
    "PipelineStep",
    "TransferService",
    "TransferRecord",
]


def __getattr__(name):
    # Lazy: repro.workflow.continual imports repro.core (which itself imports
    # repro.workflow.transfer), so an eager import here would be circular.
    if name in ("ContinualLearningPipeline", "CycleReport"):
        from repro.workflow import continual

        return getattr(continual, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
