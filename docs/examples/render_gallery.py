"""Renders the four standard figures to SVG files in the current
directory.

Run with ``python3 docs/examples/render_gallery.py``.  Output is
byte-deterministic: rendering the same scene twice gives identical
files.
"""

from infgon.homindex import zigzag
from infgon.render import render_svg
from infgon.triangulation import Fountain, Leapfrog, Triangulation
from infgon.zmodel import Vertex, ZModel

z5 = ZModel.finite(5)
fan = Triangulation.make(z5, {z5.arc(0, 2), z5.arc(0, 3)})
figures = {
    "pentagon_zigzag.svg": dict(
        z=z5, triangulation=fan,
        zigzag=zigzag(fan, z5.v(1), z5.v(4)).vertices,
        query_arcs=(z5.arc(1, 4),)),
}

z6 = ZModel.finite(6)
figures["football.svg"] = dict(
    z=z6, triangulation=Triangulation.make(
        z6, {z6.arc(0, 2), z6.arc(2, 4), z6.arc(4, 0)}))

zb = ZModel.blocks(1)
figures["fountain.svg"] = dict(
    z=zb, triangulation=Triangulation.make(
        zb, set(), {0: Fountain(Vertex(0, 0), 2, -2)}))
figures["leapfrog.svg"] = dict(
    z=zb, triangulation=Triangulation.make(
        zb, set(), {0: Leapfrog(1, -1)}))

for name, scene in figures.items():
    svg = render_svg(**scene)
    assert svg == render_svg(**scene), "determinism violated"
    with open(name, "w") as fh:
        fh.write(svg)
    print("wrote", name, f"({len(svg)} bytes)")
