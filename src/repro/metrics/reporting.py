"""Plain-text reporting: the tables and series the experiments print.

Experiment runners produce series (x values plus one y series per
algorithm); this module renders them as aligned ASCII tables and as crude
inline charts so figure shapes are inspectable from a terminal, exactly how
the benchmark harness presents the reproduced figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Series:
    """One labelled y-series over shared x values."""

    label: str
    values: List[float]


@dataclass
class FigureData:
    """Everything needed to print one reproduced figure."""

    title: str
    x_label: str
    x_values: List[float]
    series: List[Series] = field(default_factory=list)
    y_label: str = "Deadline hit ratio (%)"
    notes: List[str] = field(default_factory=list)

    def add_series(self, label: str, values: Sequence[float]) -> None:
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} points for "
                f"{len(self.x_values)} x values"
            )
        self.series.append(Series(label=label, values=list(values)))

    def series_by_label(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r}")


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 2,
) -> str:
    """Render rows as an aligned, pipe-separated ASCII table."""

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in text_rows)) if text_rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in text_rows:
        lines.append(
            " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def format_figure(figure: FigureData, precision: int = 2) -> str:
    """Figure as a table: one row per x value, one column per series."""
    headers = [figure.x_label] + [series.label for series in figure.series]
    rows = []
    for i, x in enumerate(figure.x_values):
        rows.append([x] + [series.values[i] for series in figure.series])
    parts = [figure.title, format_table(headers, rows, precision=precision)]
    if figure.notes:
        parts.append("")
        parts.extend(f"note: {note}" for note in figure.notes)
    return "\n".join(parts)


def ascii_chart(figure: FigureData, width: int = 50) -> str:
    """A crude horizontal bar chart, one bar per (x, series) pair.

    Good enough to eyeball whether a curve rises, flattens, or crosses —
    which is exactly what "reproducing the figure's shape" means here.
    """
    peak = max(
        (v for series in figure.series for v in series.values), default=0.0
    )
    y_max = peak or 1.0
    lines = [figure.title]
    label_width = max(
        (len(series.label) for series in figure.series), default=0
    )
    for i, x in enumerate(figure.x_values):
        lines.append(f"{figure.x_label} = {x}")
        for series in figure.series:
            value = series.values[i]
            bar = "#" * max(0, round(width * value / y_max))
            lines.append(f"  {series.label.ljust(label_width)} |{bar} {value:.1f}")
    return "\n".join(lines)


def format_gantt(
    lanes: Dict[int, List[tuple]],
    width: int = 72,
    until: Optional[float] = None,
) -> str:
    """Render per-processor execution lanes as an ASCII timeline.

    ``lanes`` is the :meth:`~repro.runtime.ledger.TaskLedger.gantt`
    output: processor -> sorted ``(task_id, start, finish)`` triples.  Each
    processor gets one row; executed intervals are drawn with ``#`` and gaps
    (idle time) with ``.``, scaled so the horizon fits in ``width`` columns.
    """
    if not lanes:
        return "(no completed tasks)"
    horizon = until
    if horizon is None:
        horizon = max(
            finish for lane in lanes.values() for _, _, finish in lane
        )
    if horizon <= 0:
        return "(empty horizon)"
    scale = width / horizon
    rows = [f"0 {'-' * (width - len(str(round(horizon))) - 2)} {horizon:g}"]
    for processor in sorted(lanes):
        cells = ["."] * width
        for _, start, finish in lanes[processor]:
            first = min(width - 1, int(start * scale))
            last = min(width - 1, max(first, int(finish * scale) - 1))
            for col in range(first, last + 1):
                cells[col] = "#"
        busy = sum(finish - start for _, start, finish in lanes[processor])
        rows.append(
            f"P{processor:<3d}|{''.join(cells)}| {100 * busy / horizon:5.1f}%"
        )
    return "\n".join(rows)


def comparison_summary(
    figure: FigureData, champion: str, challenger: str
) -> Dict[str, float]:
    """Headline numbers for a two-algorithm figure.

    Returns the maximum advantage of ``champion`` over ``challenger`` across
    x values, the advantage at the final x, and each side's end-to-end gain
    — the quantities the paper's prose cites ("by as much as 60%...").
    """
    a = figure.series_by_label(champion).values
    b = figure.series_by_label(challenger).values
    gaps = [x - y for x, y in zip(a, b)]
    return {
        "max_advantage": max(gaps),
        "final_advantage": gaps[-1],
        f"{champion}_gain": a[-1] - a[0],
        f"{challenger}_gain": b[-1] - b[0],
    }
