"""Zig-zag paths, indices, Hom/Ext predicates, duality."""

from __future__ import annotations

from itertools import combinations
import random

import pytest

from infgon.fzoracle import det
from infgon.homindex import (KVector, StepCapExceeded, check_duality,
                             ext_nonzero, hom_nonzero, index, index_bar,
                             index_bar_of_kvector, index_of_kvector, zigzag)
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  enumerate_triangulations)
from infgon.zmodel import Arc, ModelError, Vertex, ZModel, suspend


def pentagon_fan():
    z = ZModel.finite(5)
    return z, Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})


def fountain_fixture():
    z = ZModel.blocks(1)
    return z, Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})


def test_hom_identity():
    z = ZModel.finite(5)
    assert hom_nonzero(z, z.arc(0, 2), z.arc(0, 2))


def test_ext_is_crossing():
    z = ZModel.finite(5)
    assert ext_nonzero(z, z.arc(0, 2), z.arc(1, 3))
    assert not ext_nonzero(z, z.arc(0, 2), z.arc(0, 3))


def test_hom_asymmetry_hexagon():
    z = ZModel.finite(6)
    assert hom_nonzero(z, z.arc(0, 3), z.arc(1, 4))
    assert not hom_nonzero(z, z.arc(1, 4), z.arc(0, 3))


def test_hom_ext_serre_symmetry():
    # 2-CY symmetry: Ext(x,y) vanishes iff Ext(y,x) does; Hom(x,y)
    # nonzero iff Hom(y, suspend^2 x)... here just Ext symmetry.
    z = ZModel.finite(7)
    diags = [z.arc(i, j) for i, j in combinations(range(7), 2)
             if z.is_diagonal(z.arc(i, j))]
    for x in diags:
        for y in diags:
            if set(map(z.key, x.endpoints())) & set(map(z.key, y.endpoints())):
                continue
            assert ext_nonzero(z, x, y) == ext_nonzero(z, y, x)


def test_zigzag_pentagon():
    z, t = pentagon_fan()
    p = zigzag(t, z.v(1), z.v(4))
    assert p.vertices == (z.v(1), z.v(2), z.v(0), z.v(4))
    p2 = zigzag(t, z.v(0), z.v(2))
    assert p2.vertices == (z.v(0), z.v(2))


def test_zigzag_fountain():
    z, t = fountain_fixture()
    p = zigzag(t, Vertex(0, 1), Vertex(0, -1))
    assert p.vertices == (Vertex(0, 1), Vertex(0, 2), Vertex(0, 0),
                          Vertex(0, -1))


def test_index_pentagon():
    z, t = pentagon_fan()
    assert index(t, z.arc(1, 4)) == -KVector.basis(z.arc(0, 2))
    assert index(t, z.arc(0, 3)) == KVector.basis(z.arc(0, 3))
    assert index(t, z.arc(1, 3)) == (KVector.basis(z.arc(0, 3))
                                     - KVector.basis(z.arc(0, 2)))
    assert index(t, z.arc(3, 4)) == KVector.zero()


def test_index_memo_returns_fresh_equal_answers():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3), z.arc(3, 5)})
    a = z.arc(1, 4)
    want = (KVector.basis(z.arc(0, 3)) - KVector.basis(z.arc(0, 2))
            - KVector.basis(z.arc(3, 5)))
    first = index(t, a)
    assert first == want
    first.coeffs.clear()
    again = index(t, a)
    assert again == want and again is not first
    again.coeffs[z.arc(0, 2)] = 7
    assert index(t, a) == want
    # the step cap stops the zig-zag itself, memo or not
    with pytest.raises(StepCapExceeded):
        zigzag(t, a.p, a.q, step_cap=1)
    assert index(t, a) == want


def test_index_fountain():
    z, t = fountain_fixture()
    assert index(t, z.arc(1, -1)) == -KVector.basis(z.arc(0, 2))


def test_index_identity_on_t():
    for n in (5, 6):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for d in t.core:
                assert index(t, d) == KVector.basis(d)


def test_index_of_suspension_is_minus():
    for n in (5, 6):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for d in t.core:
                assert index(t, suspend(z, d)) == -KVector.basis(d)


def test_index_bar():
    z, t = pentagon_fan()
    assert index_bar(t, z.arc(1, 4)) == -KVector.basis(z.arc(0, 3))
    u = Triangulation.make(z, {z.arc(1, 3), z.arc(1, 4)})
    got = index_bar_of_kvector(u, KVector.basis(z.arc(0, 2)))
    assert got == -KVector.basis(z.arc(1, 4))


def test_duality_pentagon_pairs():
    z = ZModel.finite(5)
    tris = enumerate_triangulations(z)
    for t in tris:
        for u in tris:
            rep = check_duality(t, u)
            assert rep.ok, rep.failures


def test_duality_self():
    z, t = pentagon_fan()
    assert check_duality(t, t).ok


def test_duality_fountains():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})
    u = Triangulation.make(z, set(), {0: Fountain(Vertex(0, 3), 5, 1)})
    window_t = [z.arc(0, n) for n in (2, 3, 4, 5, 6, -2, -3, -4, -5, -6)]
    window_u = [z.arc(3, n) for n in (5, 6, 7, 1, 0, -1, -2)]
    rep = check_duality(t, u, window_t, window_u)
    assert rep.ok, rep.failures


def test_duality_refuses_different_models_before_any_index():
    z5, z8, b1, b2 = (ZModel.finite(5), ZModel.finite(8), ZModel.blocks(1),
                      ZModel.blocks(2))
    pentagon = Triangulation.make(z5, {z5.arc(0, 2), z5.arc(0, 3)})
    octagon = Triangulation.make(z8, {z8.arc(0, j) for j in range(2, 7)})
    fountain = Triangulation.make(b1, set(),
                                  {0: Fountain(Vertex(0, 0), 2, -2)})
    two = Triangulation.make(b2, {Arc(Vertex(0, 0), Vertex(1, 0))},
                             {0: Fountain(Vertex(0, 0), 2, -1),
                              1: Fountain(Vertex(1, 0), 2, -1)})
    for t, u in ((octagon, pentagon), (pentagon, octagon), (fountain, two),
                 (two, fountain)):
        window = None if t.z.is_finite else t.arcs_within(-3, 3)
        with pytest.raises(ModelError, match="different models"):
            check_duality(t, u, window, window)
        assert "_memo_index" not in t.__dict__
        assert "_memo_index" not in u.__dict__


def test_duality_leapfrog_vs_fountain():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, set(), {0: Leapfrog(1, -1)})
    u = Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})
    window_t = [z.arc(1, -1), z.arc(-1, 2), z.arc(2, -2), z.arc(-2, 3)]
    window_u = [z.arc(0, n) for n in (2, 3, 4, -2, -3)]
    rep = check_duality(t, u, window_t, window_u)
    assert rep.ok, rep.failures


def test_g_matrix_unimodular():
    # indices of another triangulation's diagonals form a basis
    for n in (5, 6):
        z = ZModel.finite(n)
        tris = enumerate_triangulations(z)
        for t in tris:
            basis = sorted(t.core, key=lambda a: (z.key(a.p), z.key(a.q)))
            pos = {a: i for i, a in enumerate(basis)}
            for u in tris:
                rows = []
                for d in sorted(u.core,
                                key=lambda a: (z.key(a.p), z.key(a.q))):
                    kv = index(t, d)
                    row = [0] * len(basis)
                    for a, c in kv.coeffs.items():
                        row[pos[a]] = c
                    rows.append(row)
                assert det(rows) in (1, -1)


def test_zigzag_monotonicity_random():
    rng = random.Random(7)
    z = ZModel.finite(8)
    tris = enumerate_triangulations(z)
    for _ in range(300):
        t = rng.choice(tris)
        e, f = rng.sample(range(8), 2)
        p = zigzag(t, z.v(e), z.v(f)).vertices
        odds = [p[i] for i in range(1, len(p), 2)]
        evens = [p[i] for i in range(0, len(p), 2)]
        # odd entries strictly increase from e and end at f
        rels = [z.rel(v, p[0]) for v in odds]
        assert rels == sorted(rels) and len(set(rels)) == len(rels)
        assert odds[-1] == z.v(f)
        # even entries (after e0) strictly decrease back toward f
        rels_e = [z.rel(v, z.succ(z.v(f))) for v in evens[1:]]
        assert rels_e == sorted(rels_e, reverse=True)
        assert len(set(rels_e)) == len(rels_e)
        # diagonal steps all lie in T
        for m in range(len(p) - 1):
            step = Arc(p[m], p[m + 1])
            assert z.is_edge(step) or t.contains(step)


def test_zigzag_step_outside_t_is_named(monkeypatch):
    """A zig-zag step that is not a diagonal of T is refused by name.
    The extremal engine is doctored so that the first step from 1 lands
    on 3, which the fan at 0 does not join to 1; the path then goes on
    through 0 to 4 as usual."""
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3), z.arc(0, 4)})
    assert index(t, z.arc(1, 4)) == KVector({z.arc(0, 2): -1,
                                             z.arc(0, 4): 1})
    engine = Triangulation._extremal_connected

    def doctored(self, want_min, a_lo, a_hi, b_lo, b_hi, edges_allowed):
        if b_lo == z.v(1):
            return z.v(3)
        return engine(self, want_min, a_lo, a_hi, b_lo, b_hi, edges_allowed)
    monkeypatch.setattr(Triangulation, "_extremal_connected", doctored)
    fresh = Triangulation(z, t.core, t.tails)
    assert zigzag(fresh, z.v(1), z.v(4)).vertices == (
        z.v(1), z.v(3), z.v(0), z.v(4))
    with pytest.raises(ModelError) as err:
        index(fresh, z.arc(1, 4))
    assert str(err.value) == (f"zig-zag step {z.arc(1, 3)!r} is a diagonal "
                              "outside T (invalid triangulation)")
