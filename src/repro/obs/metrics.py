"""The metrics registry: counters, gauges, histograms, counter families.

Zero-dependency, and cheap enough to stay on in the hot path.  The core
trick is the one :class:`~repro.runtime.budget.BudgetMeter` plays with
fuel: a :class:`Counter` owns a one-element list, and hot code pre-binds
that list into a local (``hits = counter.slot``) and increments
``hits[0] += 1`` inline — no attribute lookup, no method call, no
registry involvement per event.  A counter can also *adopt* a slot that
already exists, which is how the process-wide substrate counters work:
:mod:`repro.algebra.terms` and :mod:`repro.rewriting.rules` own bare
module-level list cells (so the bottom layers import nothing from the
observability layer), and :data:`GLOBAL` wraps them at import time.

Registries come in two scopes:

* :data:`GLOBAL` — one per process, holding the substrate metrics
  (intern-table hits/misses, discrimination-tree shape-memo hits/misses,
  live intern-table size);
* one per engine — every
  :class:`~repro.rewriting.engine.EngineStats` owns a private registry
  with the engine's counters (steps, firings, memo traffic, fallbacks,
  outcome statuses, fuel spent, an evaluation-latency histogram) and the
  per-rule firing :class:`CounterFamily`.

Every registry is tracked in a weak set.  :func:`collect` sums the
lot into one unsorted snapshot-shaped dict (what a shard worker ships
home per reply), and :func:`merge_snapshots` sorts and merges such
dicts when somebody reads them; :func:`aggregate_snapshot`, the
process-wide view the CLI's ``--metrics-out`` dumps, is the two in a
row.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "CounterFamily",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GLOBAL",
    "EVAL_SECONDS_BUCKETS",
    "FUEL_BUCKETS",
    "aggregate_snapshot",
    "collect",
    "histogram_quantile",
    "merge_snapshots",
    "register_snapshot_source",
    "substrate_counters",
    "suggest_fuel_budget",
]

#: Fixed bucket boundaries (seconds) for evaluation-latency histograms.
#: Fixed rather than adaptive so snapshots from different runs, engines
#: and processes are directly comparable, bucket by bucket.
EVAL_SECONDS_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

#: Fixed bucket boundaries (rewrite steps) for the per-evaluation fuel
#: histogram — roughly geometric, resolving both the single-digit spends
#: of memo-warm drains and six-figure pathological evaluations.
FUEL_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536, 262144
)


class Counter:
    """A monotonically increasing count.

    ``slot`` is the one-element backing list; hot paths bind it into a
    local and increment ``slot[0]`` directly.  Pass an existing list to
    adopt a slot owned elsewhere (the substrate counters).
    """

    __slots__ = ("name", "help", "slot")

    def __init__(
        self, name: str, help: str = "", slot: Optional[list] = None
    ) -> None:
        self.name = name
        self.help = help
        self.slot = [0] if slot is None else slot

    def inc(self, amount: int = 1) -> None:
        self.slot[0] += amount

    @property
    def value(self) -> int:
        return self.slot[0]

    def reset(self) -> None:
        self.slot[0] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.slot[0]})"


class Gauge:
    """A point-in-time value: set directly, or computed by a callable
    at snapshot time (``fn``) for values the process already tracks,
    like the live intern-table size."""

    __slots__ = ("name", "help", "_value", "fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.fn = fn
        self._value: float = 0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self.fn() if self.fn is not None else self._value

    def reset(self) -> None:
        self._value = 0


class Histogram:
    """Counts of observations in fixed, cumulative-comparable buckets.

    ``bounds`` are the upper bucket boundaries; observations above the
    last bound land in the overflow bucket.  ``sum``/``count`` allow
    mean latency to be derived from a snapshot.
    """

    __slots__ = (
        "name", "help", "bounds", "counts", "sum", "count", "exemplars"
    )

    def __init__(
        self, name: str, bounds: Sequence[float], help: str = ""
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.name = name
        self.help = help
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        #: Per-bucket exemplars (bucket index -> label dict): the most
        #: recent traced observation that landed in each bucket, so an
        #: operator staring at a latency bucket can jump straight to a
        #: representative trace.  Populated only by callers that pass
        #: ``exemplar=`` — the plain hot path stores nothing.
        self.exemplars: dict[int, dict] = {}

    def observe(self, value: float, exemplar: Optional[dict] = None) -> None:
        # bisect_left gives Prometheus-style ``le`` buckets: a value
        # equal to a bound counts in that bound's bucket.
        index = bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        if exemplar is not None:
            self.exemplars[index] = {**exemplar, "value": value}

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.exemplars = {}

    def snapshot(self) -> dict:
        snap = {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": round(self.sum, 9),
            "count": self.count,
        }
        # Only histograms that actually carry exemplars grow the key, so
        # snapshot shapes (and every test comparing them) are unchanged
        # for the rest of the fleet.
        if self.exemplars:
            snap["exemplars"] = {
                str(index): dict(labels)
                for index, labels in sorted(self.exemplars.items())
            }
        return snap


class CounterFamily:
    """A set of counters distinguished by a label key — e.g. rule
    firings per rewrite rule, outcome counts per status.

    ``counts`` is a plain dict (label object → int): hot paths update it
    with one ``dict.get``/store, and callers that used to hold the old
    ``EngineStats.firings_by_rule`` dict hold exactly this object.
    Snapshots stringify the keys (rules render as ``[label] lhs ->
    rhs``), keeping the JSON form stable and readable; each key is
    rendered once and its string cached, so a snapshot taken after
    every batch does not re-render every rule.
    """

    __slots__ = ("name", "help", "counts", "_labels")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.counts: dict = {}
        # id(key) -> (key, str(key)); holding the key keeps its id from
        # being reused while the entry lives.
        self._labels: dict[int, tuple] = {}

    def inc(self, key: object, amount: int = 1) -> None:
        counts = self.counts
        counts[key] = counts.get(key, 0) + amount

    def get(self, key: object) -> int:
        return self.counts.get(key, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def reset(self) -> None:
        self.counts.clear()
        self._labels.clear()

    def label(self, key: object) -> str:
        """``str(key)``, rendered once per key."""
        entry = self._labels.get(id(key))
        if entry is None or entry[0] is not key:
            entry = self._labels[id(key)] = (key, str(key))
        return entry[1]

    def labelled(self) -> dict[str, int]:
        """The counts keyed by label string, unsorted."""
        out: dict[str, int] = {}
        for key, count in self.counts.items():
            label = key if type(key) is str else self.label(key)
            out[label] = out.get(label, 0) + count
        return out

    def ranked(self, limit: Optional[int] = None) -> list:
        """(key, count) pairs, busiest first, ties broken by rendering."""
        ranked = sorted(
            self.counts.items(), key=lambda kv: (-kv[1], self.label(kv[0]))
        )
        return ranked if limit is None else ranked[:limit]

    def summary(self, limit: Optional[int] = None) -> str:
        """A repr-stable rendering: busiest labels first, each line
        ``<count>  <label>``."""
        lines = [f"{count:>8}  {key}" for key, count in self.ranked(limit)]
        return "\n".join(lines) if lines else "(no rule firings recorded)"

    def snapshot(self) -> dict:
        return _ranked_labels(self.labelled())


def histogram_quantile(histogram, q: float) -> Optional[float]:
    """The upper bucket bound covering quantile ``q`` of observations.

    Accepts a live :class:`Histogram` or a ``snapshot()`` dict (also the
    aggregated form), so it works on in-process engines and on metrics
    files alike.  Returns ``None`` when the histogram is empty or the
    quantile falls in the overflow bucket (no finite bound covers it) —
    callers must treat that as "no estimate", not zero.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if isinstance(histogram, Histogram):
        bounds, counts, total = (
            histogram.bounds,
            histogram.counts,
            histogram.count,
        )
    else:
        bounds = histogram["bounds"]
        counts = histogram["counts"]
        total = histogram["count"]
    if not total:
        return None
    need = q * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= need:
            return bound
    return None  # the quantile lives in the overflow bucket


def suggest_fuel_budget(
    histogram, quantile: float = 0.99, margin: float = 2.0
) -> Optional[int]:
    """A fuel budget suggestion from observed per-evaluation spends:
    the ``quantile`` bucket bound of the ``engine.fuel_per_eval``
    histogram times a safety ``margin`` (headroom for workloads slightly
    heavier than those observed).  ``None`` when there is no data — or
    when the tail escapes the finite buckets, in which case no budget
    derived from this histogram would be trustworthy.
    """
    estimate = histogram_quantile(histogram, quantile)
    if estimate is None:
        return None
    return max(1, int(estimate * margin))


#: Every live registry, for :func:`aggregate_snapshot`.
_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()

#: External snapshot providers — objects with a ``metrics_snapshot()``
#: method returning a plain snapshot dict.  The sharded evaluation pool
#: registers itself here so metrics shipped home from worker *processes*
#: (which no live registry in this process can see) still appear in the
#: process-wide :func:`aggregate_snapshot` view.
_SNAPSHOT_SOURCES: "weakref.WeakSet" = weakref.WeakSet()


def register_snapshot_source(source) -> None:
    """Track ``source`` (weakly) as an external snapshot provider.

    ``source.metrics_snapshot()`` must return a snapshot dict in the
    :meth:`MetricsRegistry.snapshot` shape; it is consulted by
    :func:`aggregate_snapshot` whenever the process-wide view is built.
    """
    _SNAPSHOT_SOURCES.add(source)


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors.

    All accessors are idempotent: asking for an existing name returns
    the existing metric (and ignores the creation arguments), so
    modules can declare the metrics they touch without coordinating.
    """

    __slots__ = (
        "name",
        "counters",
        "gauges",
        "histograms",
        "families",
        "__weakref__",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.families: dict[str, CounterFamily] = {}
        _REGISTRIES.add(self)

    # -- get-or-create accessors ---------------------------------------
    def counter(
        self, name: str, help: str = "", slot: Optional[list] = None
    ) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name, help, slot)
        return metric

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name, help, fn)
        return metric

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = EVAL_SECONDS_BUCKETS,
        help: str = "",
    ) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, bounds, help)
        return metric

    def family(self, name: str, help: str = "") -> CounterFamily:
        metric = self.families.get(name)
        if metric is None:
            metric = self.families[name] = CounterFamily(name, help)
        return metric

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        for group in (
            self.counters,
            self.gauges,
            self.histograms,
            self.families,
        ):
            for metric in group.values():
                metric.reset()

    def snapshot(self) -> dict:
        """A JSON-ready view of every metric in this registry."""
        return merge_snapshots([collect([self])])


def _ranked_labels(labels: dict[str, int]) -> dict[str, int]:
    """Family labels busiest first, ties broken by label."""
    return dict(sorted(labels.items(), key=lambda kv: (-kv[1], kv[0])))


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge plain snapshot dicts (the :meth:`MetricsRegistry.snapshot`
    shape) into one.

    Counters, histogram buckets and family labels sum; gauges keep the
    last value seen.  The inputs are ordinary JSON-compatible dicts, so
    this works equally on live in-process snapshots and on snapshots
    deserialised from another process (the sharded evaluation pool ships
    worker snapshots home through exactly this function).  Histograms
    only merge bucket-by-bucket when their bounds agree — a snapshot
    with different bounds replaces rather than corrupts.  The result is
    sorted (names, and family labels busiest first); the inputs need
    not be.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    families: dict[str, dict[str, int]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snap.get("gauges", {}))
        for name, hist in snap.get("histograms", {}).items():
            _add_histogram(histograms, name, hist)
        for name, labels in snap.get("families", {}).items():
            merged_family = families.setdefault(name, {})
            for label, count in labels.items():
                merged_family[label] = merged_family.get(label, 0) + count
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
        "families": {
            name: _ranked_labels(labels)
            for name, labels in sorted(families.items())
        },
    }


def _add_histogram(histograms: dict, name: str, hist: dict) -> None:
    """Add one histogram snapshot to the merged ``histograms``; an empty
    one adds nothing but its name."""
    merged = histograms.get(name)
    if merged is not None and not hist["count"]:
        return
    if merged is None or merged["bounds"] != list(hist["bounds"]):
        histograms[name] = {
            "bounds": list(hist["bounds"]),
            "counts": list(hist["counts"]),
            "sum": hist["sum"],
            "count": hist["count"],
        }
        if hist.get("exemplars"):
            histograms[name]["exemplars"] = dict(hist["exemplars"])
        return
    merged["counts"] = [a + b for a, b in zip(merged["counts"], hist["counts"])]
    merged["sum"] = round(merged["sum"] + hist["sum"], 9)
    merged["count"] += hist["count"]
    if hist.get("exemplars"):
        merged.setdefault("exemplars", {}).update(hist["exemplars"])


def collect(registries: Optional[Iterable[MetricsRegistry]] = None) -> dict:
    """The cumulative values of every live registry (or of
    ``registries``), summed into one unsorted snapshot-shaped dict.

    What a shard worker ships home with each reply: one pass over the
    live metrics, with family labels rendered once per key, and
    :func:`merge_snapshots` sorts only when somebody reads the merged
    view.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    families: dict[str, dict[str, int]] = {}
    for registry in list(_REGISTRIES) if registries is None else registries:
        for name, counter in registry.counters.items():
            counters[name] = counters.get(name, 0) + counter.slot[0]
        for name, gauge in registry.gauges.items():
            gauges[name] = gauge.value
        for name, hist in registry.histograms.items():
            if hist.count or name not in histograms:
                _add_histogram(histograms, name, hist.snapshot())
        for name, family in registry.families.items():
            labels = families.get(name)
            if labels is None:
                families[name] = family.labelled()
                continue
            for label, count in family.labelled().items():
                labels[label] = labels.get(label, 0) + count
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "families": families,
    }


def aggregate_snapshot(
    registries: Optional[Iterable[MetricsRegistry]] = None,
) -> dict:
    """Merge snapshots across registries (default: every live one).

    Counters, histogram buckets and family labels sum; gauges keep the
    last value seen (only the global registry carries gauges in
    practice).  This is the process-wide view ``--metrics-out`` writes:
    one engine or fifty, the metric names stay the same.  With no
    explicit ``registries``, snapshots from registered external sources
    (worker processes of a live shard pool) are folded in too.
    """
    snapshots = [collect(registries)]
    if registries is None:
        for source in list(_SNAPSHOT_SOURCES):
            try:
                snapshots.append(source.metrics_snapshot())
            except Exception:  # fault-boundary: a dying pool must not
                pass  # take the process-wide metrics view down with it
    return merge_snapshots(snapshots)


# ----------------------------------------------------------------------
# The global registry: process-wide substrate metrics
# ----------------------------------------------------------------------
# The bottom layers own bare list cells (no imports from here); the
# global registry adopts them, so `GLOBAL.snapshot()` sees every term
# construction and index lookup in the process.

from repro.algebra import terms as _terms  # noqa: E402
from repro.rewriting import rules as _rules  # noqa: E402

#: The process-wide registry (substrate metrics live here).
GLOBAL = MetricsRegistry("global")
GLOBAL.counter(
    "intern.hits",
    "term constructions answered from the hash-consing table",
    slot=_terms.INTERN_HITS,
)
GLOBAL.counter(
    "intern.misses",
    "term constructions that allocated and interned a fresh node",
    slot=_terms.INTERN_MISSES,
)
GLOBAL.counter(
    "rule_index.shape_memo_hits",
    "discrimination-tree candidate lookups answered from the shape memo",
    slot=_rules.SHAPE_MEMO_HITS,
)
GLOBAL.counter(
    "rule_index.shape_memo_misses",
    "discrimination-tree candidate lookups that walked the tree",
    slot=_rules.SHAPE_MEMO_MISSES,
)
GLOBAL.gauge(
    "intern.table_size",
    "live hash-consed terms",
    fn=_terms.intern_table_size,
)


def substrate_counters() -> dict[str, int]:
    """The process-wide substrate counters as plain ints — convenient
    for before/after deltas in benchmarks and tests."""
    return {name: c.value for name, c in sorted(GLOBAL.counters.items())}
