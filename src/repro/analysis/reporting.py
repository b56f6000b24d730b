"""Plain-text table rendering for experiment results.

The experiment harness produces rows of dictionaries; this module turns them
into aligned text / Markdown tables so benchmark output and EXPERIMENTS.md can
share the same rendering.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "format_table",
    "format_markdown_table",
    "format_value",
    "dynamics_health_table",
    "kernel_time_table",
    "counters_table",
    "gauges_table",
]


def format_value(value: Any) -> str:
    """Human-friendly rendering of a single cell value."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def _normalize_rows(
    rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None
) -> tuple[list[str], list[list[str]]]:
    if columns is None:
        seen: list[str] = []
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        columns = seen
    rendered = [[format_value(row.get(column, "")) for column in columns] for row in rows]
    return list(columns), rendered


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    header, body = _normalize_rows(rows, columns)
    widths = [len(column) for column in header]
    for row in body:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(column.ljust(widths[index]) for index, column in enumerate(header)))
    lines.append("  ".join("-" * widths[index] for index in range(len(header))))
    for row in body:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def dynamics_health_table(records: Iterable[Any], title: str | None = None) -> str:
    """Aligned table over the epoch records of a dynamic run.

    Takes the ``EpochRecord`` sequence of a
    :class:`repro.dynamics.DynamicRunResult` (duck-typed, so the analysis
    layer stays import-independent of the dynamics subsystem) and renders the
    per-epoch health: population, movement, churn, repair cost, schedule
    feasibility, physical delivery rate, and connectivity.
    """
    rows = [
        {
            "epoch": record.epoch,
            "nodes": record.n_nodes,
            "moved": record.moved,
            "failed": len(record.failed),
            "arrived": len(record.arrived),
            "repair_slots": record.repair_slots,
            "feasible": f"{record.feasible_fraction:.0%}",
            "delivered": f"{record.link_success_rate:.0%}",
            "connected": record.strongly_connected,
        }
        for record in records
    ]
    return format_table(rows, title=title)


def kernel_time_table(registry: Any, title: str | None = None) -> str:
    """Per-kernel wall-time table from an obs metrics registry.

    Takes anything with the ``counters()`` iterator of
    :class:`repro.obs.MetricsRegistry` (duck-typed, so the analysis layer
    stays import-independent of the telemetry subsystem) and joins the
    ``kernel.calls`` / ``kernel.time_ns`` counter families into one table,
    sorted by total time.  Timings are inclusive: a kernel that calls
    another kernel contributes to both rows.
    """
    calls: dict[str, float] = {}
    times: dict[str, float] = {}
    for name, labels, value in registry.counters():
        kernel = labels.get("kernel")
        if kernel is None:
            continue
        if name == "kernel.calls":
            calls[kernel] = value
        elif name == "kernel.time_ns":
            times[kernel] = value
    rows = []
    for kernel in sorted(set(calls) | set(times), key=lambda k: -times.get(k, 0.0)):
        total_ns = times.get(kernel, 0.0)
        n_calls = calls.get(kernel, 0.0)
        rows.append(
            {
                "kernel": kernel,
                "calls": int(n_calls),
                "total_ms": total_ns / 1e6,
                "per_call_us": (total_ns / n_calls / 1e3) if n_calls else 0.0,
            }
        )
    return format_table(rows, title=title)


def counters_table(
    registry: Any,
    title: str | None = None,
    exclude_prefixes: Sequence[str] = ("kernel.",),
) -> str:
    """Aligned table of every counter in an obs metrics registry.

    Kernel-timer counters are excluded by default because
    :func:`kernel_time_table` renders them joined; pass
    ``exclude_prefixes=()`` to include everything.
    """
    rows = [
        {
            "counter": name,
            "labels": ", ".join(f"{key}={value}" for key, value in labels.items()) or "-",
            "value": int(value) if float(value).is_integer() else value,
        }
        for name, labels, value in registry.counters()
        if not name.startswith(tuple(exclude_prefixes))
    ]
    return format_table(rows, title=title)


def gauges_table(
    registry: Any,
    title: str | None = None,
) -> str:
    """Aligned table of every gauge (last-written value) in a registry.

    Gauges record point-in-time quantities - resident bytes of the tiled
    geometry store, fabric worker counts - where the last value, not a
    running total, is the number of interest.
    """
    rows = [
        {
            "gauge": name,
            "labels": ", ".join(f"{key}={value}" for key, value in labels.items()) or "-",
            "value": int(value) if float(value).is_integer() else value,
        }
        for name, labels, value in registry.gauges()
    ]
    return format_table(rows, title=title)


def format_markdown_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    if not rows:
        return "(no rows)"
    header, body = _normalize_rows(rows, columns)
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
