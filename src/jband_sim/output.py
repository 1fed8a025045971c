"""CSV and SVG emission.

Both writers are byte-deterministic for a given table and replace the target
file atomically, so no file is ever half-written.  ``write_study`` names and
writes all of a study's files, one at a time: a run stopped by an I/O error
keeps the files it finished, each of which it has yielded.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .experiments import CsvTable

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70.0, 160.0, 20.0, 50.0


def format_number(value: float) -> str:
    """Serialise a value with 12 significant digits; zero is always '0'."""
    if value == 0.0:
        return "0"
    return f"{value:.12g}"


def render_csv(table: CsvTable) -> str:
    lines = [",".join(table.header)]
    for row in table.rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path | str, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_csv(table: CsvTable, path: Path | str) -> Path:
    """Write a table as CSV ('.' decimal, ',' separator, LF endings)."""
    return _atomic_write(path, render_csv(table))


def render_svg(table: CsvTable) -> str:
    """Single line chart: one polyline per non-axis column, linear axes."""
    if len(table.header) < 2:
        raise ValueError("table needs at least one curve column")
    if not table.rows:
        raise ValueError("table has no rows")

    xs = [row[0] for row in table.rows]
    series = [[row[i] for row in table.rows] for i in range(1, len(table.header))]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(min(col) for col in series)
    y_hi = max(max(col) for col in series)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MT + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{_ML:.2f}" y="{_MT:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for i in range(6):
        frac = i / 5.0
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        px, py = sx(xv), sy(yv)
        parts.append(f'<line x1="{px:.2f}" y1="{_MT + plot_h:.2f}" '
                     f'x2="{px:.2f}" y2="{_MT + plot_h + 5:.2f}" stroke="#000000"/>')
        parts.append(f'<text x="{px:.2f}" y="{_MT + plot_h + 18:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{xv:.6g}</text>')
        parts.append(f'<line x1="{_ML - 5:.2f}" y1="{py:.2f}" '
                     f'x2="{_ML:.2f}" y2="{py:.2f}" stroke="#000000"/>')
        parts.append(f'<text x="{_ML - 8:.2f}" y="{py + 4:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">{yv:.6g}</text>')
    parts.append(f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 12:.2f}" '
                 f'font-family="monospace" font-size="12" text-anchor="middle">'
                 f'{table.header[0]}</text>')

    for i, col in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, col))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = _MT + 14.0 + 16.0 * i
        lx = _ML + plot_w + 12.0
        parts.append(f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 18:.2f}" '
                     f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24:.2f}" y="{ly:.2f}" font-family="monospace" '
                     f'font-size="11">{table.header[i + 1]}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(table: CsvTable, output_path: Path | str) -> Path:
    """Render a table to a deterministic SVG line chart and write it atomically."""
    return _atomic_write(output_path, render_svg(table))


def write_study(tables: dict[str, CsvTable], primary: Path, svg: bool) -> Iterator[Path]:
    """Write a study's tables in order, yielding each path once it is written.

    The ``''`` table goes to ``primary`` and the table of suffix ``s`` to
    ``<stem>_s.csv`` beside it; with ``svg``, each CSV's chart follows it at
    the same path with ``.svg``.  Nothing is written until the generator is
    iterated.
    """
    for suffix, table in tables.items():
        path = primary.with_name(f"{primary.stem}_{suffix}.csv") if suffix else primary
        yield write_csv(table, path)
        if svg:
            yield emit_svg(table, path.with_suffix(".svg"))
