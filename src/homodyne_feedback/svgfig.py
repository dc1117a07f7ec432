"""Self-contained, deterministic SVG emission for the three figure kinds."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .measurement import pdf_vacuum

# DriftField (analysis) and EnsembleResult (engine) only annotate, so neither is imported

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _f(x: float) -> str:
    return format(float(x), ".3f")


def _svg(width: int, height: int, body: list[str]) -> str:
    parts = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        '<rect width="100%" height="100%" fill="white"/>\n',
    ]
    parts.extend(body)
    parts.append("</svg>\n")
    return "".join(parts)


def _panel(field: DriftField, label: str, cx: float, cy: float, radius: float) -> list[str]:
    """One circle panel: outline, tangential drift arrows, fixed-point dots.

    The top of the circle is the excited state (s_z = +1), the bottom the
    ground state.  Arrow lengths are proportional to the conditional mean
    rotation given a positive record.
    """
    body = [
        f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(radius)}" '
        'fill="none" stroke="black" stroke-width="1"/>\n',
        f'<text x="{_f(cx)}" y="{_f(cy + radius + 28)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{label}</text>\n',
    ]
    rot = field.mean_rotation_given_positive
    scale = 0.0
    max_rot = float(np.max(np.abs(rot)))
    if max_rot > 0.0:
        scale = 0.35 * radius / max_rot
    for phi, r, fixed in zip(field.phi, rot, field.fixed_point):
        px = cx + radius * math.sin(phi)
        py = cy - radius * math.cos(phi)
        if fixed:
            body.append(
                f'<circle class="fixed-point" cx="{_f(px)}" cy="{_f(py)}" r="4" '
                'fill="black"/>\n'
            )
            continue
        # tangent of increasing phi in screen coordinates (y grows downward)
        tx, ty = math.cos(phi), math.sin(phi)
        length = r * scale
        qx, qy = px + length * tx, py + length * ty
        body.append(
            f'<line class="drift-arrow" x1="{_f(px)}" y1="{_f(py)}" '
            f'x2="{_f(qx)}" y2="{_f(qy)}" stroke="black" stroke-width="1" '
            'marker-end="url(#ah)"/>\n'
        )
    return body


_ARROW_DEFS = (
    "<defs>\n"
    '<marker id="ah" markerWidth="6" markerHeight="6" refX="5" refY="3" '
    'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="black"/></marker>\n'
    "</defs>\n"
)


def drift_field_svg(fields: Sequence[DriftField], labels: Sequence[str]) -> str:
    """Row of circle panels, one per feedback scenario."""
    radius = 100.0
    panel_w = 300
    height = 320
    body = [_ARROW_DEFS]
    for i, (field, label) in enumerate(zip(fields, labels)):
        body.extend(_panel(field, label, panel_w * i + panel_w / 2, 140.0, radius))
    return _svg(panel_w * len(fields), height, body)


# The plot area of the decay and histogram figures inside their 640 x 420 frame.
_X0, _Y0, _X1, _Y1 = 60.0, 30.0, 610.0, 380.0


def _plot(x_lo, x_hi, y_lo, y_hi):
    """Maps of data x in [x_lo, x_hi] and y in [y_lo, y_hi] onto the plot
    area (y grows upward), and its axes lines; ValueError if a map overflows."""
    for axis, lo, hi, pixels in (("x", x_lo, x_hi, _X1 - _X0), ("y", y_lo, y_hi, _Y1 - _Y0)):
        if not math.isfinite(pixels * (float(hi) - float(lo))):
            raise ValueError(f"plot {axis} axis [{float(lo):g}, {float(hi):g}] overflows float64")

    def sx(v):
        return _X0 + (_X1 - _X0) * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return _Y1 - (_Y1 - _Y0) * (v - y_lo) / (y_hi - y_lo)

    axes = [
        f'<line x1="{_f(_X0)}" y1="{_f(_Y1)}" x2="{_f(_X1)}" y2="{_f(_Y1)}" '
        'stroke="black" stroke-width="1"/>\n',
        f'<line x1="{_f(_X0)}" y1="{_f(_Y0)}" x2="{_f(_X0)}" y2="{_f(_Y1)}" '
        'stroke="black" stroke-width="1"/>\n',
    ]
    return sx, sy, axes


def decay_svg(result: EnsembleResult) -> str:
    """Mean inversion versus time with a standard-error band."""
    t = result.time
    sx, sy, body = _plot(0.0, float(t[-1]) if t[-1] > 0 else 1.0, -1.0, 1.0)
    lo = np.clip(result.mean_sz - result.se_sz, -1.0, 1.0)
    hi = np.clip(result.mean_sz + result.se_sz, -1.0, 1.0)
    band = [f"{_f(sx(tv))},{_f(sy(v))}" for tv, v in zip(t, hi)]
    band += [f"{_f(sx(tv))},{_f(sy(v))}" for tv, v in zip(t[::-1], lo[::-1])]
    line = " ".join(f"{_f(sx(tv))},{_f(sy(v))}" for tv, v in zip(t, result.mean_sz))
    body.append(
        f'<polygon class="stderr-band" points="{" ".join(band)}" '
        'fill="lightsteelblue" stroke="none"/>\n'
    )
    body.append(
        f'<polyline class="mean-sz" points="{line}" fill="none" '
        'stroke="navy" stroke-width="1.5"/>\n'
    )
    body.append(
        f'<text x="{_f((_X0 + _X1) / 2)}" y="410" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">time</text>\n'
    )
    return _svg(640, 420, body)


def histogram_svg(records: np.ndarray, bins: int, alpha: float, law=None) -> str:
    """Histogram of `records` in `bins` equal bins on [-5 alpha, 5 alpha]
    with the density of the law that drew them overlaid: `law`, a function
    of the record, for conditional records, else the weak-field Gaussian,
    which under `law` stays as a dashed, labelled reference line.
    Densities are normalised by the count of all records, so records
    outside the range lower every bin.  SimParams refuses an alpha whose
    range width 10 alpha is not finite."""
    counts, edges = np.histogram(records, bins, range=(-5.0 * alpha, 5.0 * alpha))
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # bins of a tiny alpha are so narrow that the densities overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        density = counts / (len(records) * widths)
        curves = {"vacuum": pdf_vacuum(centers, alpha)}
        if law is not None:  # drawn first; the vacuum law stays as a reference
            curves = {"conditional": law(centers), **curves}
    if not all(np.all(np.isfinite(a)) for a in (density, *curves.values())):
        raise ValueError(f"non-finite histogram density: alpha = {alpha:g} is too small")
    ymax = max(float(density.max(initial=0.0)), *(float(c.max()) for c in curves.values())) or 1.0
    sx, sy, body = _plot(edges[0], edges[-1], 0.0, 1.05 * ymax)
    for left, w, d in zip(edges[:-1], widths, density):
        body.append(
            f'<rect class="bin" x="{_f(sx(left))}" y="{_f(sy(d))}" '
            f'width="{_f((_X1 - _X0) * w / (edges[-1] - edges[0]))}" height="{_f(_Y1 - sy(d))}" '
            'fill="lightgray" stroke="gray" stroke-width="0.5"/>\n'
        )
    styles = ('stroke="crimson" stroke-width="1.5"', 'stroke="gray" stroke-dasharray="4,3"')
    for style, (name, pdf) in zip(styles, curves.items()):
        line = " ".join(f"{_f(sx(c))},{_f(sy(p))}" for c, p in zip(centers, pdf))
        body.append(f'<polyline class="{name}-pdf" points="{line}" fill="none" {style}/>\n')
    if law is not None:
        body.append(
            f'<text class="legend" x="{_f(_X1 - 5)}" y="{_f(_Y0 + 15)}" text-anchor="end" '
            'font-family="sans-serif" font-size="12">'
            "solid: conditional law; dashed: vacuum law</text>\n"
        )
    return _svg(640, 420, body)
