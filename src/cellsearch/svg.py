"""Deterministic SVG charts for threshold sweeps.

One chart per shard: recall on the horizontal axis, destination-aggregated
precision on the vertical axis, one marker per cutoff. The chart embeds
its own data as a metadata block whose lines are byte-identical to the
sweep CSV rows, so a chart can always be reconciled with the table it was
drawn from. Output contains no timestamps and no randomness: rendering
the same sweep twice yields identical bytes.
"""

import numpy as np

from .evaluation import SWEEP_CSV_COLUMNS, SweepResult, fmt, sweep_rows

WIDTH = 720
HEIGHT = 520
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

_AXIS_STYLE = 'stroke="#444444" stroke-width="1"'
_GRID_STYLE = 'stroke="#dddddd" stroke-width="1"'
_LINE_STYLE = 'fill="none" stroke="#1f77b4" stroke-width="2"'
_DOT_STYLE = 'fill="#1f77b4"'
_TEXT_STYLE = 'font-family="monospace" font-size="12"'


def _x_pos(recall: float) -> float:
    span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    return MARGIN_LEFT + recall * span


def _y_pos(precision: float, top: float) -> float:
    span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    return HEIGHT - MARGIN_BOTTOM - (precision / top) * span


def sweep_svg_text(result: SweepResult) -> str:
    """Render one shard's sweep as a self-contained SVG document."""

    rows = sweep_rows(result)
    recalls = np.asarray(result.recall, dtype=np.float64)
    precisions = np.asarray(result.precision_dest, dtype=np.float64)
    top = max(float(precisions.max()), 1e-9)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        "<metadata id='sweep-rows'>",
        ",".join(SWEEP_CSV_COLUMNS),
    ]
    lines.extend(rows)
    lines.append("</metadata>")
    lines.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    lines.append(
        f'<text x="{MARGIN_LEFT}" y="24" font-family="monospace" font-size="16">'
        f"threshold sweep: shard {result.shard}</text>"
    )

    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = _x_pos(frac)
        gy = _y_pos(frac * top, top)
        lines.append(f'<line x1="{fmt(gx)}" y1="{y0}" x2="{fmt(gx)}" y2="{y1}" {_GRID_STYLE}/>')
        lines.append(f'<line x1="{x0}" y1="{fmt(gy)}" x2="{x1}" y2="{fmt(gy)}" {_GRID_STYLE}/>')
        lines.append(
            f'<text x="{fmt(gx - 12)}" y="{y0 + 18}" {_TEXT_STYLE}>{fmt(frac)}</text>'
        )
        lines.append(
            f'<text x="8" y="{fmt(gy + 4)}" {_TEXT_STYLE}>{fmt(frac * top)}</text>'
        )
    lines.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {_AXIS_STYLE}/>')
    lines.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {_AXIS_STYLE}/>')
    lines.append(
        f'<text x="{fmt((x0 + x1) / 2 - 24)}" y="{HEIGHT - 16}" {_TEXT_STYLE}>recall</text>'
    )
    lines.append(
        f'<text x="14" y="{MARGIN_TOP - 10}" {_TEXT_STYLE}>precision_dest</text>'
    )

    points = " ".join(
        f"{fmt(_x_pos(r))},{fmt(_y_pos(p, top))}" for r, p in zip(recalls, precisions)
    )
    lines.append(f'<polyline points="{points}" {_LINE_STYLE}/>')
    for r, p in zip(recalls, precisions):
        lines.append(
            f'<circle cx="{fmt(_x_pos(r))}" cy="{fmt(_y_pos(p, top))}" r="3" {_DOT_STYLE}/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_sweep_svg(path, result: SweepResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sweep_svg_text(result))
