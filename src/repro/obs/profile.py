"""Trace analysis over OTLP span records: "which axiom costs the most".

Every analysis here reads OTLP span records: a live caller passes
``tracer.spans``, an offline caller the spans of the file it read
(:func:`repro.obs.otlp.read_otlp_spans`) — the same records, so a
profile read back from a file equals the live one exactly.

Within one span, the interval from a ``step`` event to the next step
(or the span's end) is time spent building and reducing the fired
rule's right-hand side — so it is attributed to that rule as *self
time*.  The codegen backend's ``firings`` events carry no per-step
timestamps; their rules receive a share of the enclosing span's
duration proportional to their firing counts, which is an estimate
(and flagged as such in the profile rows).

The results are deliberately plain lists of dicts — JSON-ready and
directly renderable by :func:`repro.report.pretty.format_rule_profile`.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["attributes", "firing_counts", "profile_diff", "rule_profile"]


def attributes(record: dict) -> dict:
    """A span's or span event's OTLP attribute list as a plain dict
    (``intValue`` strings back to ints)."""
    decoded = {}
    for attr in record.get("attributes", []):
        value = attr.get("value", {})
        if "intValue" in value:
            decoded[attr.get("key")] = int(value["intValue"])
        else:
            decoded[attr.get("key")] = next(iter(value.values()), None)
    return decoded


def _rule_events(span: dict):
    """``(name, time_ns, rule, count)`` for the span's ``step`` and
    ``firings`` events."""
    for event in span.get("events", []):
        name = event.get("name")
        if name == "step" or name == "firings":
            attrs = attributes(event)
            yield (
                name,
                int(event["timeUnixNano"]),
                attrs["rule"],
                attrs.get("count", 1),
            )


def firing_counts(spans: Iterable[dict]) -> dict[str, int]:
    """Per-rule firing counts from a trace's span records: one per
    ``step`` event, plus the ``count`` of each codegen ``firings``
    event.  With sampling off, this matches the metrics registry's
    ``engine.rule_firings`` family exactly, on either backend."""
    counts: dict[str, int] = {}
    for span in spans:
        for _, _, rule, n in _rule_events(span):
            counts[rule] = counts.get(rule, 0) + n
    return counts


def rule_profile(spans: Iterable[dict]) -> list[dict]:
    """Aggregate a trace's span records into per-rule rows.

    Returns rows ``{"rule", "firings", "self_s", "share", "estimated"}``
    sorted by self time (then firings) descending.  ``share`` is the
    fraction of the profile's total self time; ``estimated`` is True
    when any of the rule's time came from proportional attribution of a
    codegen ``firings`` event rather than step timestamps.
    """
    firings: dict[str, int] = {}
    self_s: dict[str, float] = {}
    estimated: dict[str, bool] = {}

    def charge(rule: str, count: int, seconds: float, est: bool) -> None:
        firings[rule] = firings.get(rule, 0) + count
        self_s[rule] = self_s.get(rule, 0.0) + seconds
        estimated[rule] = estimated.get(rule, False) or est

    for span in spans:
        start = int(span["startTimeUnixNano"])
        end = int(span["endTimeUnixNano"])
        steps = []
        aggregated = []
        for name, time_ns, rule, n in _rule_events(span):
            if name == "step":
                steps.append((time_ns, rule))
            else:
                aggregated.append((rule, n))
        # Exact attribution: step-to-next-boundary deltas.  An unclosed
        # span exports with its end at its start, so its last step
        # gets no interval.
        steps.sort(key=lambda step: step[0])
        for i, (time_ns, rule) in enumerate(steps):
            boundary = steps[i + 1][0] if i + 1 < len(steps) else end
            charge(rule, 1, max(0, boundary - time_ns) / 1e9, False)
        # Proportional attribution for the codegen backend's counts.
        total = sum(n for _, n in aggregated) or 1
        for rule, n in aggregated:
            charge(rule, n, (end - start) / 1e9 * n / total, True)

    grand_total = sum(self_s.values())
    rows = [
        {
            "rule": rule,
            "firings": firings[rule],
            "self_s": round(self_s[rule], 9),
            "share": round(self_s[rule] / grand_total, 4)
            if grand_total > 0
            else 0.0,
            "estimated": estimated[rule],
        }
        for rule in firings
    ]
    rows.sort(key=lambda r: (-r["self_s"], -r["firings"], r["rule"]))
    return rows


def profile_diff(
    spans_a: Iterable[dict], spans_b: Iterable[dict]
) -> list[dict]:
    """Per-rule deltas between two traces' span records (``b`` minus
    ``a``).

    Profiles both traces with :func:`rule_profile` and joins the rows by
    rule id.  Each output row carries both sides' firing counts and self
    times plus the deltas, so an A/B comparison (two backends, or a
    before/after of one optimisation) reads directly as "rule X fired
    the same but got 40% cheaper".  Rules present in only one trace
    appear with zeros on the other side.  Rows are sorted by
    ``abs(self_s_delta)`` (then ``abs(firings_delta)``) descending —
    the biggest movers first, in either direction.
    """
    rows_a = {row["rule"]: row for row in rule_profile(spans_a)}
    rows_b = {row["rule"]: row for row in rule_profile(spans_b)}
    diff = []
    for rule in rows_a.keys() | rows_b.keys():
        a = rows_a.get(rule)
        b = rows_b.get(rule)
        firings_a = a["firings"] if a else 0
        firings_b = b["firings"] if b else 0
        self_a = a["self_s"] if a else 0.0
        self_b = b["self_s"] if b else 0.0
        diff.append(
            {
                "rule": rule,
                "firings_a": firings_a,
                "firings_b": firings_b,
                "firings_delta": firings_b - firings_a,
                "self_s_a": self_a,
                "self_s_b": self_b,
                "self_s_delta": round(self_b - self_a, 9),
                "estimated": bool(a and a["estimated"])
                or bool(b and b["estimated"]),
            }
        )
    diff.sort(
        key=lambda r: (
            -abs(r["self_s_delta"]),
            -abs(r["firings_delta"]),
            r["rule"],
        )
    )
    return diff
