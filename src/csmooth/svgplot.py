"""Deterministic SVG rendering for fields, error CDFs, and summary bars.

Everything is emitted as plain text with fixed-precision coordinates and no
timestamps or random ids, so the same inputs always produce the same bytes.
Coordinates and colors are computed over whole arrays, in the same
floating-point operations as one cell or point at a time, so the files are
byte-identical to formatting each element by hand. Every label is one
``<text>`` element from ``_label``, escaped as XML, and every chart scales
to ``_top`` of its values: the largest, or 1 when none is positive. A value
that is not finite is a ConfigError, raised before any file is written.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .domain import SpatialField
from .errors import ConfigError

# Anchor colors of the viridis ramp, interpolated linearly in RGB.
_RAMP = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)

# Line colors for multi-series charts, reused cyclically.
_SERIES = ("#4053d3", "#ddb310", "#b51d14", "#00beff", "#fb49b0", "#00b25d")


def _ramp_colors(t: np.ndarray) -> list[str]:
    """Hex color of the ramp at each finite t; t outside [0, 1] clamps to an end."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    knots = np.array([k for k, _ in _RAMP])
    anchors = np.array([c for _, c in _RAMP], dtype=float)
    seg = np.searchsorted(knots[1:], t)   # the first segment with t <= its right knot
    s = ((t - knots[seg]) / (knots[seg + 1] - knots[seg]))[:, None]
    c0, c1 = anchors[seg], anchors[seg + 1]
    rgb = np.rint(c0 + s * (c1 - c0)).astype(np.int64)   # rint rounds half to even, as round()
    return [f"#{v:06x}" for v in ((rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]).tolist()]


def _fmt(x: float) -> str:
    # Fixed-precision decimals keep the files small and stable.
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _text(s: str) -> str:
    """``s`` as XML character data (html.escape with quote=False, without importing html)."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _label(x: float, y: float, text: str, size: int = 10, anchor: str = "", fill: str = "") -> str:
    """One monospace ``<text>`` element at (x, y), its ``text`` escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    fill = f' fill="{fill}"' if fill else ""
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}"{anchor}{fill}>{_text(text)}</text>')


def _top(values: Iterable[float]) -> float:
    """The largest of ``values``, the top of a chart's scale; 1 when none is positive."""
    top = max(map(float, values), default=1.0)
    return 1.0 if top <= 0 else top


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_field_svg(
    field: SpatialField,
    path: str | Path,
    title: str = "",
) -> None:
    """Heatmap of a field; inactive cells stay background gray."""
    dom = field.domain
    cell_px = 6.0
    margin = 4.0
    title_h = 18.0 if title else 0.0
    width = dom.n_cols * cell_px + 2 * margin
    height = dom.n_rows * cell_px + 2 * margin + title_h
    top = _top(field.values.tolist())
    body = ['<rect width="100%" height="100%" fill="#e8e8e8"/>']
    if title:
        body.append(_label(width / 2, 13, title, 12, "middle"))
    xs = [_fmt(margin + c * cell_px) for c in range(dom.n_cols)]
    ys = [_fmt(margin + title_h + r * cell_px) for r in range(dom.n_rows)]
    size = _fmt(cell_px)
    rows, cols = dom.cells.T.tolist()
    body += (
        f'<rect x="{xs[c]}" y="{ys[r]}" width="{size}" height="{size}" fill="{color}"/>'
        for r, c, color in zip(rows, cols, _ramp_colors(field.values / top))
    )
    Path(path).write_text(_svg(width, height, body))


def render_cdf_svg(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    path: str | Path,
    title: str = "error cdf",
    x_max: float | None = None,
) -> None:
    """Step plot of empirical error CDFs, one (label, errors, cdf) per series."""
    width, height = 420.0, 300.0
    ml, mr, mt, mb = 46.0, 12.0, 26.0, 34.0
    pw, ph = width - ml - mr, height - mt - mb
    if x_max is not None and not np.isfinite(x_max):
        raise ConfigError(f"x_max {x_max!r} is not finite")
    x_max = _top([x_max] if x_max is not None else (e[-1] for _, e, _ in series if len(e)))

    # both take a number or an array
    def sx(x):
        return ml + pw * np.minimum(x, x_max) / x_max

    def sy(p):
        return mt + ph * (1.0 - p)

    body = ['<rect width="100%" height="100%" fill="#ffffff"/>',
            _label(width / 2, 16, title, 12, "middle")]
    # axes
    body.append(
        f'<path d="M {_fmt(ml)} {_fmt(mt)} L {_fmt(ml)} {_fmt(mt + ph)} '
        f'L {_fmt(ml + pw)} {_fmt(mt + ph)}" stroke="#333" fill="none"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        body.append(
            f'<line x1="{_fmt(ml - 3)}" y1="{_fmt(y)}" x2="{_fmt(ml)}" '
            f'y2="{_fmt(y)}" stroke="#333"/>'
        )
        body.append(_label(ml - 6, y + 4, _fmt(frac), anchor="end"))
        x = ml + pw * frac
        body.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(mt + ph)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(mt + ph + 3)}" stroke="#333"/>'
        )
        body.append(_label(x, mt + ph + 14, _fmt(frac * x_max), anchor="middle"))
    for k, (label, errors, cdf) in enumerate(series):
        if not (np.isfinite(errors).all() and np.isfinite(cdf).all()):
            raise ConfigError(f"cdf series {label!r} holds a value that is not finite")
        color = _SERIES[k % len(_SERIES)]
        n = min(len(errors), len(cdf))
        e = np.asarray(errors, dtype=float)[:n]
        p = np.asarray(cdf, dtype=float)[:n]
        cut = np.flatnonzero(e > x_max)   # the step stops before the first level past x_max
        if cut.size:
            e, p = e[:cut[0]], p[:cut[0]]
        xs = map(_fmt, sx(e).tolist())
        ys = [_fmt(sy(0.0)), *map(_fmt, sy(p).tolist())]
        # each level ends one vertical step and starts the next
        steps = [f"L {x} {y0} L {x} {y1}" for x, y0, y1 in zip(xs, ys, ys[1:])]
        pts = [f"M {_fmt(sx(0))} {ys[0]}", *steps, f"L {_fmt(sx(x_max))} {ys[-1]}"]
        body.append(f'<path d="{" ".join(pts)}" stroke="{color}" fill="none" stroke-width="1.5"/>')
        body.append(_label(ml + pw - 4, mt + 14 + 13 * k, label, anchor="end", fill=color))
    body.append(_label(ml + pw / 2, height - 6, "relative error", anchor="middle"))
    Path(path).write_text(_svg(width, height, body))


def render_bars_svg(
    labels: Sequence[str],
    values: Sequence[float],
    path: str | Path,
    title: str = "mean relative error",
) -> None:
    """Horizontal bar chart, one bar per label."""
    width = 420.0
    bar_h, gap = 22.0, 8.0
    ml, mr, mt, mb = 96.0, 16.0, 26.0, 10.0
    height = mt + mb + len(labels) * (bar_h + gap)
    top = _top(values)
    pw = width - ml - mr
    body = ['<rect width="100%" height="100%" fill="#ffffff"/>',
            _label(width / 2, 16, title, 12, "middle")]
    for k, (label, value) in enumerate(zip(labels, values)):
        if not np.isfinite(value):
            raise ConfigError(f"bar {label!r} has value {float(value)!r}, which is not finite")
        y = mt + k * (bar_h + gap)
        w = pw * float(value) / top
        color = _SERIES[k % len(_SERIES)]
        body.append(
            f'<rect x="{_fmt(ml)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(bar_h)}" fill="{color}"/>'
        )
        body.append(_label(ml - 6, y + bar_h / 2 + 4, label, anchor="end"))
        body.append(_label(ml + w + 4, y + bar_h / 2 + 4, repr(float(value))))
    Path(path).write_text(_svg(width, height, body))
