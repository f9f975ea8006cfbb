"""Plain-text table rendering for experiment outputs.

:func:`format_table` aligns cells; :func:`render` reads one table off
a list of sample dataclasses (headers and cells come from the fields,
or from the ``COLUMNS`` the class declares beside them); :func:`pivot` is the
"rows = x, columns = series" shape of Figs. 5 and 7.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import fields


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(
            header.ljust(widths[column])
            for column, header in enumerate(headers)
        ).rstrip()
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append(
            "  ".join(
                cell.rjust(widths[column]) for column, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def render(samples: Sequence[object], title: str | None = None) -> str:
    """One table, one row per sample dataclass.

    A column per field, headed by the field's name with spaces, unless
    the class declares ``COLUMNS``: field names, or ``(header, cell)``
    pairs where *cell* names a field or is a function of the sample.
    """
    kind = type(samples[0])
    declared = getattr(kind, "COLUMNS", None) or [
        field.name for field in fields(kind)
    ]
    columns = [
        (column.replace("_", " "), column) if isinstance(column, str)
        else column
        for column in declared
    ]
    return format_table(
        [header for header, _ in columns],
        [
            [
                cell(sample) if callable(cell) else getattr(sample, cell)
                for _, cell in columns
            ]
            for sample in samples
        ],
        title=title,
    )


def pivot(series: Sequence[object], x_name: str) -> str:
    """Rows = x values, one column per series, one table per measure.

    The series' class declares ``PIVOT``: the field naming a series,
    the field holding its x values, and ``(field, table title)`` per
    measure.
    """
    name, xs, measures = type(series[0]).PIVOT
    headers = [x_name] + [getattr(entry, name) for entry in series]
    return "\n\n".join(
        format_table(
            headers,
            [
                [x] + [getattr(entry, measure)[row] for entry in series]
                for row, x in enumerate(getattr(series[0], xs))
            ],
            title=title,
        )
        for measure, title in measures
    )


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
