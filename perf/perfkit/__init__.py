"""The repo benchmark's own code: statistics, span recording, input
generation, the four workloads and the per-layer probes.  ``perf/run.py`` is
the only entry point; nothing here is imported by ``src/``."""
