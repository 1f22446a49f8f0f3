"""The parallel compute plane: executors and shared-memory handoff.

Pick a backend by registry name (``create_component("executor", "process",
max_workers=4)``) or declaratively via ``ExecutorSpec`` on ``SystemSpec``.
Two planes accept an ``Executor`` and fall back to their serial path when
given none: pseudo-Voigt labeling (``label_patches``, ``LabelingEngine``) and
fairDS's multi-batch embedding and certainty.  Training and MC-dropout
probes always run in-process.
"""

from repro.compute.executor import (
    Executor,
    InlineExecutor,
    Session,
    ThreadExecutor,
    WorkerContext,
    chunk_items,
)
from repro.compute.process import ProcessExecutor
from repro.compute.shm import ArraySpec, ShmArena, arena_from_arrays, attach_array

__all__ = [
    "ArraySpec",
    "Executor",
    "InlineExecutor",
    "ProcessExecutor",
    "Session",
    "ShmArena",
    "ThreadExecutor",
    "WorkerContext",
    "arena_from_arrays",
    "attach_array",
    "chunk_items",
]
