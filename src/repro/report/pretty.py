"""Pretty-printing of specifications, terms and analysis artefacts.

The default ``str`` forms are compact; this module adds the layouts the
examples and benchmark harnesses print: boxed specification listings,
indented if-then-else, and aligned report tables.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.terms import App, Ite, Term
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification


def format_term(term: Term, indent: int = 0, width: int = 72) -> str:
    """Render ``term``, breaking if-then-else over lines when long."""
    flat = str(term)
    if len(flat) + indent <= width and "\n" not in flat:
        return flat
    pad = " " * indent
    if isinstance(term, Ite):
        cond = format_term(term.cond, indent + 3, width)
        then_branch = format_term(term.then_branch, indent + 5, width)
        else_branch = format_term(term.else_branch, indent + 5, width)
        return (
            f"if {cond}\n{pad}then {then_branch}\n{pad}else {else_branch}"
        )
    if isinstance(term, App) and term.args:
        inner = (",\n" + pad + " " * (len(term.op.name) + 1)).join(
            format_term(arg, indent + len(term.op.name) + 1, width)
            for arg in term.args
        )
        return f"{term.op.name}({inner})"
    return flat


def format_axiom(axiom: Axiom, width: int = 72) -> str:
    label = f"({axiom.label}) " if axiom.label else ""
    lhs = str(axiom.lhs)
    rhs = format_term(axiom.rhs, indent=len(label) + len(lhs) + 3, width=width)
    return f"{label}{lhs} = {rhs}"


def format_specification(spec: Specification, width: int = 72) -> str:
    """The paper's presentation: Type / Operations / Axioms."""
    lines = [f"Type: {spec.name}"]
    if spec.parameter_sorts:
        params = ", ".join(str(s) for s in spec.parameter_sorts)
        lines[0] = f"Type: {spec.name} [{params}]"
    lines.append("Operations:")
    name_width = max(
        (len(op.name) + 1 for op in spec.own_operations()), default=0
    )
    for operation in spec.own_operations():
        domain = " x ".join(str(s) for s in operation.domain)
        arrow = f"{domain} -> {operation.range}" if domain else f"-> {operation.range}"
        lines.append(f"  {operation.name + ':':<{name_width + 1}} {arrow}")
    lines.append("Axioms:")
    for axiom in spec.axioms:
        lines.append(f"  {format_axiom(axiom, width)}")
    if spec.uses:
        lines.append(f"Uses: {', '.join(u.name for u in spec.uses)}")
    return "\n".join(lines)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """A plain aligned text table (benchmark harness output)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [render(list(headers)), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in materialized)
    return "\n".join(lines)


def banner(title: str, char: str = "=", width: int = 72) -> str:
    """A section banner for example/bench output."""
    bar = char * width
    return f"{bar}\n{title}\n{bar}"


# ----------------------------------------------------------------------
# Observability renderings
# ----------------------------------------------------------------------
def format_metrics(snapshot: dict) -> str:
    """Render a metrics snapshot (one registry's
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` or the merged
    :func:`~repro.obs.metrics.aggregate_snapshot`) as aligned tables.

    Counters and gauges share one name/value table; histograms add a
    per-bucket table; counter families (rule firings, outcome statuses)
    are ranked busiest-first.
    """
    sections: list[str] = []
    scalars = [
        (name, value)
        for name, value in sorted(
            list(snapshot.get("counters", {}).items())
            + list(snapshot.get("gauges", {}).items())
        )
    ]
    if scalars:
        sections.append(format_table(("metric", "value"), scalars))
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        if not hist["count"]:
            continue
        bounds = hist["bounds"]
        labels = [f"<= {bound:g}" for bound in bounds] + [
            f"> {bounds[-1]:g}" if bounds else "all"
        ]
        rows = [
            (label, count)
            for label, count in zip(labels, hist["counts"])
            if count
        ]
        rows.append(("total", hist["count"]))
        mean = hist["sum"] / hist["count"]
        rows.append(("mean", f"{mean:.6g}"))
        sections.append(format_table((name, "count"), rows))
    for name, labels in sorted(snapshot.get("families", {}).items()):
        if not labels:
            continue
        sections.append(
            format_table(
                (name, "count"),
                sorted(labels.items(), key=lambda kv: (-kv[1], kv[0])),
            )
        )
    return "\n\n".join(sections) if sections else "(no metrics recorded)"


def format_rule_profile(profile: Sequence[dict], limit: int = 10) -> str:
    """Render a per-rule self-time profile (the rows
    :func:`repro.obs.profile.rule_profile` produces) as a top-N table.

    ``~`` marks self times estimated by proportional attribution (the
    codegen backend's aggregated firing events carry no per-step
    timestamps)."""
    rows = []
    for row in list(profile)[:limit]:
        marker = "~" if row.get("estimated") else ""
        rows.append(
            (
                row["firings"],
                f"{marker}{row['self_s']:.6f}",
                f"{row['share'] * 100:.1f}%",
                row["rule"],
            )
        )
    if not rows:
        return "(no rule firings recorded)"
    return format_table(("firings", "self_s", "share", "rule"), rows)


def format_profile_diff(diff: Sequence[dict], limit: int = 10) -> str:
    """Render a trace comparison (the rows
    :func:`repro.obs.profile.profile_diff` produces) as a top-N table
    of the biggest movers.  Deltas are ``b`` minus ``a``; ``~`` marks
    rows whose self time on either side was estimated by proportional
    attribution."""
    rows = []
    for row in list(diff)[:limit]:
        marker = "~" if row.get("estimated") else ""
        delta = row["firings_delta"]
        rows.append(
            (
                row["firings_a"],
                row["firings_b"],
                f"{delta:+d}" if delta else "0",
                f"{row['self_s_a']:.6f}",
                f"{row['self_s_b']:.6f}",
                f"{marker}{row['self_s_delta']:+.6f}",
                row["rule"],
            )
        )
    if not rows:
        return "(no rule firings in either trace)"
    return format_table(
        (
            "firings_a",
            "firings_b",
            "delta",
            "self_s_a",
            "self_s_b",
            "self_delta",
            "rule",
        ),
        rows,
    )
