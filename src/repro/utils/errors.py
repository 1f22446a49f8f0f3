"""Exception hierarchy shared across the library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers embedding fairDMS inside a larger experiment-control loop can catch a
single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed or called with invalid options."""


class StorageError(ReproError):
    """Raised by the storage substrate (document DB, file store, codecs)."""


class NotFittedError(ReproError):
    """Raised when a model/service is used before it has been fitted or trained."""


class ValidationError(ReproError):
    """Raised when user-supplied data fails validation (shape, dtype, range)."""


class PipelineError(ReproError):
    """Raised by the workflow step-chain engine (:mod:`repro.workflow.pipeline`)."""


class StepTimeoutError(PipelineError):
    """A pipeline step attempt exceeded its ``timeout_s``.  The attempt is
    abandoned (threads cannot be killed); the step may retry if it has
    retries left."""


class ServingError(ReproError):
    """Raised by the concurrent serving runtime (:mod:`repro.serving`)."""


class ServiceOverloadedError(ServingError):
    """Admission control rejected a request: the serving queue is at
    ``max_queue_depth``.  Fail-fast backpressure — the client should retry
    later or shed load, rather than queueing unboundedly."""


class ServiceClosedError(ServingError):
    """A request was submitted to a serving runtime that is not accepting
    traffic (not started yet, or already shut down)."""


class NetworkError(ReproError):
    """Raised by the network serving plane (:mod:`repro.net`): transport
    failures, protocol violations, and exhausted retries."""


class FrameTooLargeError(NetworkError):
    """A protocol frame exceeded the configured ``max_frame_bytes``.  The
    peer rejects the frame with a typed error instead of buffering it."""


class DeadlineExceededError(NetworkError):
    """A network request's per-request deadline expired before a response
    arrived (retries included) — or, server-side, before a serving worker
    picked the request up, in which case its handler is never run."""


class RemoteError(NetworkError):
    """A typed error frame returned by the server.  ``error_type`` carries
    the wire-level error code (``"overloaded"``, ``"closed"``,
    ``"unknown_op"``, ``"bad_request"``, ``"frame_too_large"``,
    ``"unavailable"``, ``"deadline_exceeded"``, ``"internal"``)."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"[{error_type}] {message}")
        self.error_type = error_type
