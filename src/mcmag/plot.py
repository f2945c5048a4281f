"""CSV -> SVG rendering of a sweep's probability columns.

Pure Python: ``mcmag plot`` loads this module, ``math`` and the error
types, and not numpy.
"""

from __future__ import annotations

import math

from .errors import ConfigError

_PLOT_COLUMNS = (
    ("c0_max", "#c0392b"),
    ("c1_max", "#2980b9"),
    ("p_inc_opt", "#7f8c8d"),
    ("c0_thresh", "#e67e22"),
    ("c1_thresh", "#16a085"),
)


def _first_fault(lines: list[tuple[int, str]], n_cells: int, cols: dict[str, int]) -> None:
    """Raise the ConfigError naming the first fault of the rows, in line
    order: a row without ``n_cells`` cells, or a plotted cell that
    :func:`_plot_columns` refuses, read on its own."""
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != n_cells:
            raise ConfigError(f"line {lineno}: {len(cells)} cells, the header has {n_cells}")
        for column, i in cols.items():
            if _plot_columns([cells], n_cells, {column: i}) is None:
                raise ConfigError(
                    f"line {lineno}, column {column!r}: not a finite number: {cells[i]!r}"
                )


def _plot_columns(rows: list[list[str]], n_cells: int, cols: dict[str, int]):
    """The plotted columns of ``rows``: None for ``NA`` off the axis, else a
    finite float; None if a row has not ``n_cells`` cells or a cell is neither."""
    if set(map(len, rows)) - {n_cells}:
        return None
    values: dict[str, list[float | None]] = {}
    try:
        for column, i in cols.items():
            cells = [row[i] for row in rows]
            if column != "axis" and "NA" in cells:
                values[column] = [None if cell == "NA" else float(cell) for cell in cells]
                numbers = [v for v in values[column] if v is not None]
            else:
                values[column] = numbers = list(map(float, cells))
            if not all(map(math.isfinite, numbers)):
                return None
    except ValueError:  # a cell that is not a number
        return None
    return values


def plot_csv(csv_text: str, title: str = "") -> str:
    """Render probability columns of a sweep CSV as a standalone SVG.

    A row whose length differs from the header's, or a plotted cell that is
    neither ``NA`` nor a finite number, is a ConfigError naming its line.
    """
    lines = [(n, ln) for n, ln in enumerate(csv_text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("axis,"):
        raise ConfigError("not a sweep CSV (missing header)")
    header = lines[0][1].split(",")
    if len(lines) < 2:
        raise ConfigError("CSV has no data rows")
    plotted = [(column, color) for column, color in _PLOT_COLUMNS if column in header]
    cols = {column: header.index(column) for column in ["axis"] + [c for c, _ in plotted]}
    values = _plot_columns([line.split(",") for _, line in lines[1:]], len(header), cols)
    if values is None:
        _first_fault(lines[1:], len(header), cols)
    xs = values["axis"]
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0

    width, height = 800.0, 520.0
    ml, mr, mt, mb = 60.0, 20.0, 30.0, 40.0

    # Each row's x pixel once (monotone in x: the frame ends at the largest),
    # and its text once for every curve.
    pxs = [ml + (x - x_lo) / span * (width - ml - mr) for x in xs]
    # Every coordinate is a float, so the unbound float.__format__ gives
    # "%.2f"'s text without parsing a %-template per number.
    fmt = float.__format__
    x_texts = [fmt(px, ".2f") + "," for px in pxs]
    plot_h = height - mt - mb
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{max(pxs) - ml:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for column, color in plotted:
        pts = [
            x_text + fmt(mt + (1.0 - y) * plot_h, ".2f")
            for x_text, y in zip(x_texts, values[column]) if y is not None
        ]
        if len(pts) >= 2:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    label = (title or "probability vs axis").replace("&", "&amp;")
    label = label.replace("<", "&lt;").replace(">", "&gt;")
    parts.append(
        f'<text x="{ml:.0f}" y="20" font-family="monospace" font-size="13">'
        f"{label} [{x_lo:g} .. {x_hi:g}]</text>"
    )
    legend_y = 36.0
    for column, color in plotted:
        parts.append(
            f'<text x="{width - 180:.0f}" y="{legend_y:.0f}" fill="{color}" '
            f'font-family="monospace" font-size="12">{column}</text>'
        )
        legend_y += 14.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
