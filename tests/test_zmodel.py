"""Order and crossing primitives, checked against an independent
Euclidean oracle on finite polygons."""

from __future__ import annotations

import math
import re
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from infgon.zmodel import (Arc, Limit, ModelError, Vertex, ZModel, keys_cross,
                           suspend, unsuspend)


def chords_intersect(n: int, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Euclidean oracle: do the open chords of the n-th roots of unity
    intersect?  Shared endpoints count as non-crossing."""
    if set(a) & set(b):
        return False

    def pt(i):
        return (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    p1, p2 = pt(a[0]), pt(a[1])
    q1, q2 = pt(b[0]), pt(b[1])
    return (orient(p1, p2, q1) != orient(p1, p2, q2)
            and orient(q1, q2, p1) != orient(q1, q2, p2))


def test_succ_pred_finite():
    z = ZModel.finite(5)
    assert z.succ(z.v(4)) == z.v(0)
    assert z.pred(z.v(0)) == z.v(4)


def test_succ_blocks():
    z1 = ZModel.blocks(1)
    assert z1.succ(Vertex(0, 7)) == Vertex(0, 8)
    z2 = ZModel.blocks(2)
    for i in (-3, 0, 11):
        assert z2.succ(Vertex(0, i)) == Vertex(0, i + 1)
        assert z2.succ(Vertex(1, i)) == Vertex(1, i + 1)


@given(st.integers(4, 12), st.integers(0, 11))
def test_succ_pred_inverse_finite(n, i):
    z = ZModel.finite(n)
    v = Vertex(0, i % n)
    assert z.pred(z.succ(v)) == v
    assert z.succ(z.pred(v)) == v


@given(st.integers(1, 4), st.integers(0, 3), st.integers(-30, 30))
def test_succ_pred_inverse_blocks(k, b, i):
    z = ZModel.blocks(k)
    v = Vertex(b % k, i)
    assert z.pred(z.succ(v)) == v
    assert z.succ(z.pred(v)) == v


def test_between_finite():
    z = ZModel.finite(5)
    assert z.cyclically_between(z.v(2), z.v(3), z.v(4))
    assert not z.cyclically_between(z.v(2), z.v(0), z.v(4))
    assert z.cyclically_between(z.v(2), z.v(2), z.v(4))
    assert z.cyclically_between(z.v(2), z.v(4), z.v(4))
    # wraparound
    assert z.cyclically_between(z.v(4), z.v(0), z.v(1))


def test_between_limit_point():
    z = ZModel.blocks(1)
    assert z.cyclically_between(Vertex(0, 5), Limit(0), Vertex(0, -5))
    assert not z.cyclically_between(Vertex(0, -5), Limit(0), Vertex(0, 5))
    assert z.cyclically_between(Vertex(0, 5), Vertex(0, 1000), Vertex(0, -5))
    assert z.cyclically_between(Vertex(0, 5), Vertex(0, -1000), Vertex(0, -5))


def test_between_blocks2_order():
    z = ZModel.blocks(2)
    # ccw reading from (0,0): block 0 up, L(0), block 1 up, L(1), block 0 negatives
    assert z.cyclically_between(Vertex(0, 0), Limit(0), Vertex(1, 0))
    assert z.cyclically_between(Limit(0), Vertex(1, -9), Limit(1))
    assert z.cyclically_between(Limit(1), Vertex(0, -3), Vertex(0, 0))
    assert not z.cyclically_between(Vertex(1, 0), Limit(0), Vertex(0, -1))


@given(st.integers(4, 9), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_between_xor(n, a, x, b):
    z = ZModel.finite(n)
    a, x, b = z.v(a), z.v(x), z.v(b)
    if a == b or x in (a, b):
        return
    assert z.cyclically_between(a, x, b) != z.cyclically_between(b, x, a)


@pytest.mark.parametrize("z, bad, good", [
    (ZModel.finite(6), Vertex(0, 6), (Vertex(0, 1), Vertex(0, 3))),
    (ZModel.finite(6), Vertex(1, 0), (Vertex(0, 1), Vertex(0, 3))),
    (ZModel.finite(6), Limit(0), (Vertex(0, 1), Vertex(0, 3))),
    (ZModel.blocks(2), Vertex(2, 0), (Vertex(0, 1), Vertex(1, 3))),
    (ZModel.finite(6), Vertex(0, -1), (Vertex(0, 1), Vertex(0, 3))),
    (ZModel.blocks(2), Vertex(-1, 0), (Vertex(0, 1), Vertex(1, 3))),
])
def test_foreign_points_raise_model_error(z, bad, good):
    g, h = good
    with pytest.raises(ModelError):
        z.key(bad)
    # succ, pred and are_neighbours test check_vertex's condition inline
    with pytest.raises(ModelError) as refused:
        z.check_vertex(bad)
    for ask in (z.succ, z.pred, lambda p: z.are_neighbours(p, g),
                lambda p: z.are_neighbours(g, p)):
        with pytest.raises(ModelError, match=re.escape(str(refused.value))):
            ask(bad)
    for between in (z.cyclically_between, z.strictly_between, z.in_closed):
        for args in ((bad, g, h), (g, bad, h), (g, h, bad)):
            with pytest.raises(ModelError):
                between(*args)
    diagonal = Arc(g, h)
    with pytest.raises(ModelError):
        z.crosses(Arc(bad, g), diagonal)
    with pytest.raises(ModelError):
        z.crosses(diagonal, Arc(bad, g))


def test_crosses_examples():
    z4 = ZModel.finite(4)
    assert z4.crosses(z4.arc(0, 2), z4.arc(1, 3))
    z5 = ZModel.finite(5)
    assert z5.crosses(z5.arc(1, 4), z5.arc(0, 3))
    z = ZModel.blocks(1)
    a = z.arc(Vertex(0, 1), Vertex(0, -1))
    for m in (2, -2, 5, -5):
        assert z.crosses(a, z.arc(Vertex(0, 0), Vertex(0, m)))


def test_crosses_shared_endpoint_is_false():
    z = ZModel.finite(6)
    assert not z.crosses(z.arc(0, 3), z.arc(3, 5))


def test_crosses_rejects_non_diagonal():
    z = ZModel.finite(5)
    with pytest.raises(ModelError):
        z.crosses(z.arc(0, 2), z.arc(3, 4))


def test_crosses_matches_euclidean_oracle():
    for n in range(4, 9):
        z = ZModel.finite(n)
        diagonals = [(i, j) for i, j in combinations(range(n), 2)
                     if (j - i) % n not in (1, n - 1)]
        for a, t in combinations(diagonals, 2):
            expected = chords_intersect(n, a, t)
            got = z.crosses(z.arc(*a), z.arc(*t))
            assert got == expected, (n, a, t)
            assert z.crosses(z.arc(*t), z.arc(*a)) == expected


def test_crosses_limit_endpoint():
    z = ZModel.blocks(1)
    a = Arc(Limit(0), Vertex(0, 0))
    assert z.crosses(a, z.arc(Vertex(0, 2), Vertex(0, -2)))
    assert not z.crosses(a, z.arc(Vertex(0, 2), Vertex(0, 4)))


def _exactly_one_inside(z, a, t):
    """The crossing definition read through strictly_between."""
    if t.p in (a.p, a.q) or t.q in (a.p, a.q):
        return False
    return (z.strictly_between(a.p, t.p, a.q)
            != z.strictly_between(a.p, t.q, a.q))


@pytest.mark.parametrize("z, pts", [
    (ZModel.finite(7), [Vertex(0, i) for i in range(7)]),
    (ZModel.blocks(2), [Vertex(b, i) for b in (0, 1) for i in range(-3, 4)]
     + [Limit(0), Limit(1)]),
])
def test_keys_cross_is_the_crossing_test(z, pts):
    """On every heptagon diagonal pair, and on every arc of a Blocks(2)
    window (limit endpoints included) against every diagonal, keys_cross
    agrees with ZModel.crosses and the definition, in either endpoint
    order."""
    arcs = [Arc(p, q) for p, q in combinations(pts, 2)]
    diagonals = [a for a in arcs if z.is_diagonal(a)]
    for a in (diagonals if z.is_finite else arcs):
        ka, kb = z.key(a.p), z.key(a.q)
        for t in diagonals:
            want = z.crosses(a, t)
            assert want == _exactly_one_inside(z, a, t)
            kp, kq = z.key(t.p), z.key(t.q)
            assert keys_cross(ka, kb, kp, kq) == want
            assert keys_cross(kb, ka, kq, kp) == want


def test_suspend():
    z = ZModel.finite(5)
    assert suspend(z, z.arc(0, 2)) == z.arc(4, 1)
    a = z.arc(1, 3)
    for _ in range(5):
        a = suspend(z, a)
    assert a == z.arc(1, 3)
    assert unsuspend(z, suspend(z, a)) == a
    zb = ZModel.blocks(1)
    assert suspend(zb, zb.arc(0, 3)) == zb.arc(-1, 2)


def test_arc_normalization_and_equality():
    z = ZModel.finite(6)
    assert z.arc(4, 1) == z.arc(1, 4)
    assert hash(z.arc(4, 1)) == hash(z.arc(1, 4))
    assert len({z.arc(0, 2), z.arc(2, 0)}) == 1


def test_edge_diagonal_classification():
    z = ZModel.finite(5)
    assert z.is_edge(z.arc(4, 0))
    assert not z.is_diagonal(z.arc(4, 0))
    assert z.is_diagonal(z.arc(0, 2))
    zb = ZModel.blocks(2)
    # vertices in different blocks are never neighbours
    assert zb.is_diagonal(zb.arc(Vertex(0, 100), Vertex(1, -100)))
    assert not zb.is_diagonal(Arc(Limit(0), Vertex(0, 0)))
