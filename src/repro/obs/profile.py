"""Per-rule self-time attribution: "which axiom costs the most".

A trace (see :mod:`repro.obs.trace`) carries timestamps on every event.
Within one span, the interval from a ``step`` event to the next event
boundary (the following step, or the span's end) is time spent building
and reducing the fired rule's right-hand side — so it is attributed to
that rule as *self time*.  The codegen backend's aggregated ``firings``
events carry no per-step timestamps; their rules receive a share of the
enclosing span's duration proportional to their firing counts, which is
an estimate (and flagged as such in the profile rows).

The result is deliberately a plain list of dicts — JSON-ready for
``--metrics-out``-style dumps and directly renderable by
:func:`repro.report.pretty.format_rule_profile`.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["profile_diff", "rule_profile", "top_rules"]


def rule_profile(events: Iterable[dict]) -> list[dict]:
    """Aggregate a trace into per-rule rows.

    Returns rows ``{"rule", "firings", "self_s", "share", "estimated"}``
    sorted by self time (then firings) descending.  ``share`` is the
    fraction of the profile's total self time; ``estimated`` is True
    when any of the rule's time came from proportional attribution of a
    codegen ``firings`` event rather than step timestamps.
    """
    events = list(events)
    span_end: dict = {}
    for event in events:
        if event.get("ev") == "span_end" and "span" in event:
            span_end[event["span"]] = event

    firings: dict[str, int] = {}
    self_s: dict[str, float] = {}
    estimated: dict[str, bool] = {}

    def charge(rule: str, count: int, seconds: float, est: bool) -> None:
        firings[rule] = firings.get(rule, 0) + count
        self_s[rule] = self_s.get(rule, 0.0) + seconds
        estimated[rule] = estimated.get(rule, False) or est

    # Exact attribution: step-to-next-boundary deltas within a span.
    steps_by_span: dict = {}
    for event in events:
        if event.get("ev") == "step":
            steps_by_span.setdefault(event.get("span"), []).append(event)
    for span, steps in steps_by_span.items():
        steps.sort(key=lambda e: e["ts"])
        end = span_end.get(span)
        for i, step in enumerate(steps):
            if i + 1 < len(steps):
                boundary = steps[i + 1]["ts"]
            elif end is not None:
                boundary = end["ts"]
            else:  # span never closed (error unwind): no interval
                boundary = step["ts"]
            charge(step["rule"], 1, max(0.0, boundary - step["ts"]), False)

    # Proportional attribution for the codegen backend's aggregates.
    for event in events:
        if event.get("ev") != "firings":
            continue
        counts = event["counts"]
        total = sum(counts.values())
        end = span_end.get(event.get("span"))
        duration = (end["dur_us"] / 1e6) if end is not None else 0.0
        for rule, count in counts.items():
            charge(rule, count, duration * count / total, True)

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


def top_rules(
    events: Iterable[dict], limit: Optional[int] = 10
) -> list[dict]:
    """The ``limit`` most expensive rules of a trace (all, if None)."""
    rows = rule_profile(events)
    return rows if limit is None else rows[:limit]


def profile_diff(
    events_a: Iterable[dict], events_b: Iterable[dict]
) -> list[dict]:
    """Per-rule deltas between two traces (``b`` minus ``a``).

    Profiles both traces with :func:`rule_profile` and joins the rows by
    rule id.  Each output row carries both sides' firing counts and self
    times plus the deltas, so an A/B comparison (two backends, or a
    before/after of one optimisation) reads directly as "rule X fired
    the same but got 40% cheaper".  Rules present in only one trace
    appear with zeros on the other side.  Rows are sorted by
    ``abs(self_s_delta)`` (then ``abs(firings_delta)``) descending —
    the biggest movers first, in either direction.
    """
    rows_a = {row["rule"]: row for row in rule_profile(events_a)}
    rows_b = {row["rule"]: row for row in rule_profile(events_b)}
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
