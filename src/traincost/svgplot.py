"""Minimal deterministic SVG line charts.

Cosmetic companions to the CSV tables: no timestamps, no random ids, byte
output depends only on the data, so charts can be diffed like the tables.
The y axis is logarithmic. Points that are not finite, or not positive on
a logarithmic axis, are dropped from their series; a series left with one
point is drawn as a dot.
"""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720.0, 480.0
_MARGIN_LEFT, _MARGIN_RIGHT = 80.0, 24.0
_MARGIN_TOP, _MARGIN_BOTTOM = 40.0, 56.0


def _transform(value: float, lo: float, hi: float, log: bool) -> float:
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


def _text(x: str, y: str, anchor: str | None, size: int, label, transform: str = "") -> str:
    """One <text> element; x and y are written as given, anchor None omits it."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" '
        f'font-size="{size}"{transform}>{label}</text>'
    )


def line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    x_label: str,
    y_label: str,
    log_x: bool = False,
) -> str:
    points_by_name = []
    for name, points in series:
        kept = [
            (x, y)
            for x, y in points
            if math.isfinite(x) and math.isfinite(y)
            and (not log_x or x > 0) and y > 0
        ]
        if kept:
            points_by_name.append((name, kept))
    if not points_by_name:
        raise ValueError("no finite points to plot")

    xs = [x for _, pts in points_by_name for x, _ in pts]
    ys = [y for _, pts in points_by_name for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    left, right = f"{_MARGIN_LEFT:.2f}", f"{_MARGIN_LEFT + plot_w:.2f}"
    x_ticks_y, y_ticks_x = f"{_HEIGHT - 36:.2f}", f"{_MARGIN_LEFT - 6:.2f}"
    mid_y = f"{_MARGIN_TOP + plot_h / 2:.2f}"

    def px(x: float) -> float:
        return _MARGIN_LEFT + _transform(x, x_lo, x_hi, log_x) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (1.0 - _transform(y, y_lo, y_hi, True)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{left}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
        _text(f"{_WIDTH / 2:.2f}", "24", "middle", 15, title),
        _text(f"{_MARGIN_LEFT + plot_w / 2:.2f}", f"{_HEIGHT - 14:.2f}", "middle", 12, x_label),
        _text("20.00", mid_y, "middle", 12, y_label, f' transform="rotate(-90 20.00 {mid_y})"'),
        # Corner tick labels only; this is a sketch, not a publication figure.
        _text(left, x_ticks_y, "middle", 11, f"{x_lo:.6g}"),
        _text(right, x_ticks_y, "middle", 11, f"{x_hi:.6g}"),
        _text(y_ticks_x, f"{_MARGIN_TOP + plot_h:.2f}", "end", 11, f"{y_lo:.6g}"),
        _text(y_ticks_x, f"{_MARGIN_TOP + 10:.2f}", "end", 11, f"{y_hi:.6g}"),
    ]
    for i, (name, pts) in enumerate(points_by_name):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        lx, ly = _MARGIN_LEFT + 12, _MARGIN_TOP + 16 + 16 * i
        if len(pts) == 1:  # a polyline of one point draws nothing
            cx, cy = coords.split(",")
            mark = f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>'
        else:
            mark = f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        out += [
            mark,
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 18:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>',
            _text(f"{lx + 24:.2f}", f"{ly:.2f}", None, 12, name),
        ]
    out.append("</svg>")
    return "\n".join(out) + "\n"
