"""SVG rendering: golden-file byte equality and determinism."""

from __future__ import annotations

import pathlib

import pytest

from infgon.homindex import zigzag
from infgon.render import render_svg
from infgon.triangulation import Fountain, Leapfrog, Triangulation
from infgon.zmodel import ModelError, Vertex, ZModel

GOLDEN = pathlib.Path(__file__).parent / "golden"


def pentagon_spec():
    z = ZModel.finite(5)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})
    zz = zigzag(t, z.v(1), z.v(4)).vertices
    return dict(z=z, triangulation=t, zigzag=zz, query_arcs=(z.arc(1, 4),))


def football_spec():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(2, 4), z.arc(4, 0)})
    return dict(z=z, triangulation=t)


def fountain_spec():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})
    return dict(z=z, triangulation=t, window=(-6, 6))


def leapfrog_spec():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, set(), {0: Leapfrog(1, -1)})
    return dict(z=z, triangulation=t, window=(-6, 6))


FIGURES = {
    "pentagon_zigzag": pentagon_spec,
    "football": football_spec,
    "fountain": fountain_spec,
    "leapfrog": leapfrog_spec,
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_golden_byte_equality(name):
    got = render_svg(**FIGURES[name]())
    want = (GOLDEN / f"{name}.svg").read_text()
    assert got == want


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_render_twice_identical(name):
    spec = FIGURES[name]()
    assert render_svg(**spec) == render_svg(**spec)


def test_svg_well_formed():
    import xml.etree.ElementTree as ET
    for fig in FIGURES.values():
        ET.fromstring(render_svg(**fig()))


def test_no_negative_zero_coordinates():
    for fig in FIGURES.values():
        assert "-0.0000" not in render_svg(**fig())


def test_mismatched_model_rejected():
    z5 = ZModel.finite(5)
    z6 = ZModel.finite(6)
    t = Triangulation.make(z6, {z6.arc(0, 2), z6.arc(0, 3), z6.arc(0, 4)})
    with pytest.raises(ModelError):
        render_svg(z5, triangulation=t)


def test_window_limits_blocks_vertices():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, set(), {0: Leapfrog(1, -1)})
    svg = render_svg(z, triangulation=t, window=(-2, 2))
    assert ">3</text>" not in svg
    assert ">2</text>" in svg
