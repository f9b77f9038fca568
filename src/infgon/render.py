"""Deterministic SVG rendering of models, triangulations, and paths.

The output contract is byte-level determinism: no timestamps, fixed
4-decimal coordinate formatting, and elements emitted in a canonical
order.  Finite models place vertices at the n-th roots of unity;
Blocks models compress vertex angles exponentially toward the limit
points so that accumulation is visible at any window size.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .triangulation import Triangulation
from .zmodel import Arc, ClosurePoint, Limit, ModelError, Vertex, ZModel

_CX = 200.0
_CY = 200.0
_R = 170.0


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _angle(z: ZModel, p: ClosurePoint) -> float:
    """Angle of a closure point, counterclockwise, vertex/limit layout."""
    if z.is_finite:
        if not isinstance(p, Vertex):
            raise ModelError("finite model has no limit points")
        return -math.pi / 2 + 2 * math.pi * p.idx / z.n
    k = z.k
    if isinstance(p, Limit):
        return math.pi / 2 + 2 * math.pi * ((p.gap + 1) % k) / k
    start = math.pi / 2 + 2 * math.pi * p.block / k
    mid = start + math.pi / k
    half = math.pi / k
    frac = 1.0 - 2.0 ** (-abs(p.idx))
    return mid + half * frac if p.idx >= 0 else mid - half * frac


def _xy(z: ZModel, p: ClosurePoint) -> tuple[float, float]:
    a = _angle(z, p)
    return (_CX + _R * math.cos(a), _CY - _R * math.sin(a))


class RenderSpec(NamedTuple):
    """What to draw: a model, optionally a triangulation (within an
    index window per block for Blocks models), a zig-zag path, and
    highlighted query arcs."""

    z: ZModel
    triangulation: Triangulation | None = None
    zigzag: tuple[Vertex, ...] = ()
    query_arcs: tuple[Arc, ...] = ()
    window: tuple[int, int] = (-6, 6)


def render_svg(spec: RenderSpec) -> str:
    """The SVG document for a render spec; byte-identical for equal
    inputs."""
    z = spec.z
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="400" height="400" viewBox="0 0 400 400">',
        '<style>'
        '.disk{fill:none;stroke:#999;stroke-width:1}'
        '.vertex{fill:#222}'
        '.limit{fill:#fff;stroke:#222;stroke-width:1}'
        '.label{font:9px monospace;fill:#444}'
        '.triangulation{stroke:#2a6fbb;stroke-width:1.4;fill:none}'
        '.zigzag{stroke:#d64545;stroke-width:2;fill:none}'
        '.query{stroke:#2f9e44;stroke-width:2;stroke-dasharray:5 3;'
        'fill:none}'
        '</style>',
        f'<circle class="disk" cx="{_fmt(_CX)}" cy="{_fmt(_CY)}" '
        f'r="{_fmt(_R)}"/>',
    ]

    t = spec.triangulation
    if t is not None:
        if t.z != z:
            raise ModelError("triangulation drawn over a different model")
        arcs = (sorted(t.core, key=z.arc_key)
                if z.is_finite else t.arcs_within(*spec.window))
        for a in arcs:
            (x1, y1), (x2, y2) = _xy(z, a.p), _xy(z, a.q)
            lines.append(
                f'<line class="triangulation" x1="{_fmt(x1)}" '
                f'y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')

    for a in spec.query_arcs:
        (x1, y1), (x2, y2) = _xy(z, a.p), _xy(z, a.q)
        lines.append(
            f'<line class="query" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')

    if spec.zigzag:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}"
                       for x, y in (_xy(z, v) for v in spec.zigzag))
        lines.append(f'<polyline class="zigzag" points="{pts}"/>')

    for v in z.vertices(spec.window):
        x, y = _xy(z, v)
        lines.append(
            f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            'r="2.5"/>')
        lx, ly = (_CX + (_R + 12) * (x - _CX) / _R,
                  _CY + (_R + 12) * (y - _CY) / _R)
        name = str(v.idx) if (z.is_finite or z.k == 1) \
            else f"{v.block},{v.idx}"
        lines.append(
            f'<text class="label" x="{_fmt(lx)}" y="{_fmt(ly)}" '
            f'text-anchor="middle">{name}</text>')

    for lim in z.limits():
        x, y = _xy(z, lim)
        lines.append(
            f'<circle class="limit" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            'r="3.5"/>')

    lines.append('</svg>')
    return "\n".join(lines) + "\n"
