"""Zig-zag paths, indices, Ext as crossing, duality."""

from __future__ import annotations

from itertools import combinations
import random

import pytest

from infgon.homindex import (CoVector, StepCapExceeded, TailRange,
                             check_duality, index, index_bar, index_bar_sum,
                             index_sum, zigzag)
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  enumerate_triangulations, validate)
from infgon.zmodel import Arc, ModelError, Vertex, ZModel, suspend

from test_fzoracle import det
from test_validate import fountain_fixture, pentagon_fan


def test_ext_is_crossing():
    # Ext(x, y) is nonzero iff the diagonals x and y cross
    z = ZModel.finite(5)
    assert z.crosses(z.arc(0, 2), z.arc(1, 3))
    assert not z.crosses(z.arc(0, 2), z.arc(0, 3))


def test_hom_ext_serre_symmetry():
    # 2-CY symmetry: Ext(x,y) vanishes iff Ext(y,x) does, so crossing
    # is symmetric
    z = ZModel.finite(7)
    diags = [z.arc(i, j) for i, j in combinations(range(7), 2)
             if z.is_diagonal(z.arc(i, j))]
    for x in diags:
        for y in diags:
            if set(map(z.key, x.endpoints())) & set(map(z.key, y.endpoints())):
                continue
            assert z.crosses(x, y) == z.crosses(y, x)


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
    assert index(t, z.arc(1, 4)) == CoVector(t, {z.arc(0, 2): -1})
    assert index(t, z.arc(0, 3)) == CoVector(t, {z.arc(0, 3): 1})
    assert index(t, z.arc(1, 3)) == CoVector(t, {z.arc(0, 3): 1,
                                                 z.arc(0, 2): -1})
    assert index(t, z.arc(3, 4)) == CoVector(t)


def test_index_memo_returns_fresh_equal_answers():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3), z.arc(3, 5)})
    a = z.arc(1, 4)
    want = CoVector(t, {z.arc(0, 3): 1, z.arc(0, 2): -1, z.arc(3, 5): -1})
    first = index(t, a)
    assert first == want
    first.explicit.clear()
    again = index(t, a)
    assert again == want and again is not first
    again.explicit[z.arc(0, 2)] = 7
    assert index(t, a) == want
    # the step cap stops the zig-zag itself, memo or not
    with pytest.raises(StepCapExceeded):
        zigzag(t, a.p, a.q, step_cap=1)
    assert index(t, a) == want


def test_index_fountain():
    z, t = fountain_fixture()
    assert index(t, z.arc(1, -1)) == CoVector(t, {z.arc(0, 2): -1})


def test_index_identity_on_t():
    for n in (5, 6):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for d in t.core:
                assert index(t, d) == CoVector(t, {d: 1})


def test_index_of_suspension_is_minus():
    for n in (5, 6):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for d in t.core:
                assert index(t, suspend(z, d)) == CoVector(t, {d: -1})


def test_index_bar():
    z, t = pentagon_fan()
    assert index_bar(t, z.arc(1, 4)) == CoVector(t, {z.arc(0, 3): -1})
    u = Triangulation.make(z, {z.arc(1, 3), z.arc(1, 4)})
    got = index_bar_sum(u, CoVector(t, {z.arc(0, 2): 1}))
    assert got == CoVector(u, {z.arc(1, 4): -1})


def test_equal_functionals_hash_equal():
    z, t = fountain_fixture()
    a, b = z.arc(0, 2), z.arc(0, -2)
    right = TailRange(0, "right", 3, None, 1)
    left = TailRange(0, "left", None, -3, -2)
    one = CoVector(t, {a: 1, b: -1}, (right, left))
    other = CoVector(t, {b: -1, a: 1, z.arc(0, 3): 0},
                     (left, TailRange(0, "left", 5, 9, 0), right))
    assert one == other and hash(one) == hash(other)
    assert one != CoVector(t, {a: 1, b: -1}, (right,))
    assert one != CoVector(t, {a: 1, b: -2}, (right, left))


def test_negation_is_an_involution():
    z, t = fountain_fixture()
    c = CoVector(t, {z.arc(0, 2): 3},
                 (TailRange(0, "right", 4, None, 1),
                  TailRange(0, "left", None, -4, -2)))
    minus = -c
    assert minus.explicit == {z.arc(0, 2): -3}
    assert {tr.coeff for tr in minus.tail_terms} == {-1, 2}
    assert -(-c) == c and -c != c
    assert -CoVector(t) == CoVector(t)


def test_functionals_over_different_triangulations_differ():
    z, t = pentagon_fan()
    u = Triangulation.make(z, {z.arc(0, 2), z.arc(2, 4)})
    a = z.arc(0, 2)
    assert CoVector(t, {a: 1}) != CoVector(u, {a: 1})
    assert CoVector(t) != CoVector(u)
    assert CoVector(t, {a: 1}) == CoVector(Triangulation.make(z, t.core),
                                           {a: 1})


def test_index_sums_refuse_tail_terms():
    z, t = fountain_fixture()
    first = TailRange(0, "right", 2, None, 1)
    c = CoVector(t, {z.arc(0, 2): 1},
                 (first, TailRange(0, "left", None, -2, 1)))
    for index_sum_of in (index_sum, index_bar_sum):
        with pytest.raises(ModelError, match="tail term") as err:
            index_sum_of(t, c)
        assert repr(first) in str(err.value)
        # both index maps send a diagonal d of T to [d]
        assert index_sum_of(t, CoVector(t, c.explicit)) == CoVector(
            t, c.explicit)


def test_duality_pentagon_pairs():
    z = ZModel.finite(5)
    tris = enumerate_triangulations(z)
    for t in tris:
        for u in tris:
            rep = check_duality(t, u, t.arcs_within((0, 4)),
                                u.arcs_within((0, 4)))
            assert rep.ok, rep.failures


def test_duality_self():
    z, t = pentagon_fan()
    window = t.arcs_within((0, 4))
    assert check_duality(t, t, window, window).ok


def test_duality_fails_on_a_crossing_core():
    """Duality is checked, not assumed: U's core is no triangulation
    (13 crosses 02), and the U-side check fails at 02."""
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3), z.arc(0, 4)})
    u = Triangulation.make(z, {z.arc(1, 3), z.arc(1, 4), z.arc(1, 5),
                               z.arc(0, 2)})
    assert validate(u).reason == "crossing pair"
    rep = check_duality(t, u, sorted(t.core, key=z.arc_key),
                        sorted(u.core, key=z.arc_key))
    assert not rep.ok
    assert [f[:2] for f in rep.failures] == [("U-side", z.arc(0, 2))]


def test_duality_fountains():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})
    u = Triangulation.make(z, set(), {0: Fountain(Vertex(0, 3), 5, 1)})
    window_t = [z.arc(0, n) for n in (2, 3, 4, 5, 6, -2, -3, -4, -5, -6)]
    window_u = [z.arc(3, n) for n in (5, 6, 7, 1, 0, -1, -2)]
    rep = check_duality(t, u, window_t, window_u)
    assert rep.ok, rep.failures


def test_duality_refuses_different_models_before_any_index():
    """Built by the constructor, so cold: ``make`` may return an equal
    triangulation that another test has memoized indices on."""
    z5, z8, b1, b2 = (ZModel.finite(5), ZModel.finite(8), ZModel.blocks(1),
                      ZModel.blocks(2))
    pentagon = Triangulation(z5, frozenset({z5.arc(0, 2), z5.arc(0, 3)}))
    octagon = Triangulation(z8, frozenset(z8.arc(0, j) for j in range(2, 7)))
    fountain = Triangulation(b1, frozenset(),
                             ((0, Fountain(Vertex(0, 0), 2, -2)),))
    two = Triangulation(b2, frozenset({Arc(Vertex(0, 0), Vertex(1, 0))}),
                        ((0, Fountain(Vertex(0, 0), 2, -1)),
                         (1, Fountain(Vertex(1, 0), 2, -1))))
    for t, u in ((octagon, pentagon), (pentagon, octagon), (fountain, two),
                 (two, fountain)):
        window = t.arcs_within((-3, 3))
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
                    for a, c in kv.explicit.items():
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
    assert index(t, z.arc(1, 4)) == CoVector(t, {z.arc(0, 2): -1,
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
