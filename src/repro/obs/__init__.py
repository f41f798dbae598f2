"""Observability: metrics, span tracing, and profiling.

Guttag's abstract-data-type programme trades efficiency for abstraction
— symbolic interpretation runs the specification directly, "at a
significant loss in efficiency".  This package makes that loss *visible*
without adding dependencies or measurable overhead when disabled:

* :mod:`repro.obs.metrics` — a registry of counters, gauges,
  histograms and labelled counter families.  Engine statistics
  (:class:`repro.rewriting.engine.EngineStats`) are now views over a
  per-engine registry; process-wide substrate counters (intern table,
  discrimination-tree shape memo) live in :data:`repro.obs.metrics.GLOBAL`;
  :func:`repro.obs.metrics.aggregate_snapshot` merges everything for
  ``--metrics-out``.
* :mod:`repro.obs.trace` — a span tracer recording OTLP span records
  in memory (spans, with rewrite steps, rule firings, budget
  exhaustions and fault hits as their events) behind a deterministic
  sampling knob.  Disabled is the default, and the disabled check is
  one ``is None`` test on a module global.
* :mod:`repro.obs.otlp` — the one trace format: OTLP/JSON documents
  wrapping those records, their file reader and span-tree validator,
  and the daemon's exporter.
* :mod:`repro.obs.profile` — analyses of OTLP span records: per-rule
  firing counts and a self-time profile (which axiom costs the most).
"""

from repro.obs.metrics import (
    EVAL_SECONDS_BUCKETS,
    FUEL_BUCKETS,
    GLOBAL,
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshot,
    histogram_quantile,
    merge_snapshots,
    register_snapshot_source,
    substrate_counters,
    suggest_fuel_budget,
)
from repro.obs.profile import firing_counts, profile_diff, rule_profile
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import Tracer, install, maybe_span, rule_id, tracing

__all__ = [
    "Counter",
    "CounterFamily",
    "EVAL_SECONDS_BUCKETS",
    "FUEL_BUCKETS",
    "GLOBAL",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "aggregate_snapshot",
    "firing_counts",
    "histogram_quantile",
    "install",
    "maybe_span",
    "merge_snapshots",
    "profile_diff",
    "register_snapshot_source",
    "render_prometheus",
    "rule_id",
    "rule_profile",
    "substrate_counters",
    "suggest_fuel_budget",
    "tracing",
]
