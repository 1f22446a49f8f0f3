"""Thread-safe metrics registry: counters, gauges, and histograms.

Every subsystem of the repo grew its own telemetry island —
:class:`~repro.serving.telemetry.ServingTelemetry` snapshots, trainer
histories, IVF ``scan_stats()`` — with no shared vocabulary and no
machine-readable export.  This module is the shared substrate they all emit
into: a :class:`MetricsRegistry` holding named metric *families*
(:class:`Counter` / :class:`Gauge` / :class:`Histogram`), each fanned out
into per-label-set children, exported in one call as Prometheus text
exposition (:meth:`MetricsRegistry.expose_text`) or a plain nested dict
(:meth:`MetricsRegistry.as_dict`).

Conventions (the ``repro_*`` naming scheme):

* counters end in ``_total`` and only ever go up (``repro_requests_total``);
* durations are histograms in seconds (``repro_request_latency_seconds``);
* sizes/levels are histograms or gauges in natural units
  (``repro_batch_size``, ``repro_queue_depth``);
* label sets stay low-cardinality — operation names, statuses, splits;
  never sample ids or timestamps.

A process-global default registry (:func:`default_registry`) is what library
instrumentation points write to by default, so one
``registry.expose_text()`` shows the whole process; tests and embedded uses
inject their own :class:`MetricsRegistry` instances where isolation matters
(:func:`set_default_registry` swaps the global one and returns the previous,
for scoped overrides).

Family creation is **get-or-create**: calling ``registry.counter(name, ...)``
twice returns the same family, so independent components may declare the
metrics they share (e.g. two serving runtimes both observing
``repro_batch_size``) without coordination; redeclaring a name with a
different kind or label names is a configuration error.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.utils.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds, tuned for *seconds* of latency
#: (the Prometheus client defaults): sub-millisecond through tens of seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _format_value(value: float) -> str:
    """Prometheus-style number formatting: integers without the ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


# -- per-label-set children --------------------------------------------------------
class _CounterChild:
    """One label set of a counter family; monotonically non-decreasing."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters can only increase; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    """One label set of a gauge family; goes up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramChild:
    """One label set of a histogram family: cumulative buckets + sum + count."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds  # shared, immutable, sorted, +Inf-terminated
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # Linear scan beats bisect for the short bucket lists used here, and
        # the non-cumulative per-bucket storage means one increment per
        # observation; cumulativeness is materialised at collection time.
        bounds = self._bounds
        i = 0
        while value > bounds[i]:  # bounds end with +Inf, so this terminates
            i += 1
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def value(self) -> Dict[str, Any]:
        """A snapshot dict: cumulative bucket counts, sum, and count."""
        with self._lock:
            counts = list(self._counts)
            total, acc = self._sum, self._count
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            cumulative.append((bound, running))
        return {"buckets": cumulative, "sum": total, "count": acc}


# -- metric families ---------------------------------------------------------------
class _MetricFamily:
    """A named metric plus its per-label-set children.

    With no label names, the family proxies its single anonymous child's
    methods, so ``registry.counter("x_total").inc()`` works directly.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ConfigurationError(f"invalid label name {label!r} on metric {name!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ConfigurationError(f"duplicate label names on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues: Any):
        """The child for one label set, created on first use."""
        if set(labelvalues) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} requires labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _anonymous(self):
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} has labels {list(self.labelnames)}; "
                "use .labels(...) to select a child"
            )
        return self.labels()

    def collect(self) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels_dict, child)`` for every label set seen so far."""
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in sorted(items)
        ]


class Counter(_MetricFamily):
    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._anonymous().inc(amount)

    @property
    def value(self) -> float:
        return self._anonymous().value


class Gauge(_MetricFamily):
    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._anonymous().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._anonymous().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._anonymous().dec(amount)

    @property
    def value(self) -> float:
        return self._anonymous().value


class Histogram(_MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ):
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in (buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ConfigurationError(f"histogram {name!r} has duplicate bucket bounds")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.buckets: Tuple[float, ...] = tuple(bounds)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._anonymous().observe(value)

    @property
    def value(self) -> Dict[str, Any]:
        return self._anonymous().value


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# -- the registry ------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of metric families with one export surface.

    Creation methods are get-or-create and thread-safe; redeclaring a name
    with a different kind, label names, or (for histograms) buckets raises
    :class:`~repro.utils.errors.ConfigurationError` so two components cannot
    silently split one series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _MetricFamily] = {}

    # -- declaration -------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered with labels "
                        f"{list(existing.labelnames)}, not {list(labelnames)}"
                    )
                if kwargs.get("buckets") is not None and isinstance(existing, Histogram):
                    declared = Histogram(name, help, labelnames, kwargs["buckets"]).buckets
                    if declared != existing.buckets:
                        raise ConfigurationError(
                            f"histogram {name!r} is already registered with "
                            "different buckets"
                        )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a monotonically increasing counter family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge family (a value that goes up and down)."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Get or create a histogram family (cumulative buckets + sum/count)."""
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    # -- introspection -----------------------------------------------------------
    def get(self, name: str) -> Optional[_MetricFamily]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> List[_MetricFamily]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def unregister(self, name: str) -> bool:
        """Drop a family (mainly for tests); True when it existed."""
        with self._lock:
            return self._metrics.pop(name, None) is not None

    def as_dict(self) -> Dict[str, Any]:
        """Every family's children as plain values, keyed by metric name.

        Counter/gauge children map their label tuple (rendered as the
        Prometheus ``{k="v"}`` suffix, ``""`` for label-less metrics) to a
        float; histogram children map to ``{"buckets", "sum", "count"}``.
        """
        out: Dict[str, Any] = {}
        for family in self.collect():
            series: Dict[str, Any] = {}
            for labels, child in family.collect():
                series[_label_suffix(labels)] = child.value
            out[family.name] = {"kind": family.kind, "help": family.help, "series": series}
        return out

    # -- exposition --------------------------------------------------------------
    def expose_text(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4).

        Families with no observations yet are exposed with their ``# HELP`` /
        ``# TYPE`` headers only, so a scrape always sees the full vocabulary.
        """
        lines: List[str] = []
        for family in self.collect():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.collect():
                if isinstance(family, Histogram):
                    snap = child.value
                    for bound, cumulative in snap["buckets"]:
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(bound)
                        lines.append(
                            f"{family.name}_bucket{_label_suffix(bucket_labels)} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_label_suffix(labels)} {_format_value(snap['sum'])}"
                    )
                    lines.append(f"{family.name}_count{_label_suffix(labels)} {snap['count']}")
                else:
                    lines.append(
                        f"{family.name}{_label_suffix(labels)} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"


def internal_errors(registry: MetricsRegistry, site: str) -> _CounterChild:
    """``repro_internal_errors_total{site=...}``: one per exception caught,
    logged and survived at ``site`` (every such ``except`` counts here)."""
    return registry.counter("repro_internal_errors_total",
                            "Exceptions caught, logged and survived inside the library",
                            ("site",)).labels(site=site)


# -- the process-global default ----------------------------------------------------
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry library instrumentation emits into."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Instrumented components bind their families at construction time, so a
    swap affects components constructed *afterwards* — swap first (e.g. in a
    test fixture), then build the system under observation.
    """
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise ConfigurationError("set_default_registry requires a MetricsRegistry")
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
