"""Triangulation queries checked against brute-force finite oracles and
hand-frozen infinite fixtures."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from infgon.triangulation import (DualQuiver, Fountain, Leapfrog,
                                  Triangulation, enumerate_triangulations,
                                  validate)
from infgon.zmodel import Arc, Limit, ModelError, Vertex, ZModel

from test_validate import (_filled, _flipped, _shift, crossing_quadruple,
                           fountain_fixture, hexagon_cyclic, is_acyclic,
                           leapfrog_fixture, pentagon_fan, reference_nodes)


# -- membership -----------------------------------------------------------


def test_fountain_membership():
    z, t = fountain_fixture()
    for n in (2, 3, 17, -2, -3, -40):
        assert t.contains(z.arc(0, n))
    for bad in (z.arc(0, 1), z.arc(1, 3), z.arc(2, -2)):
        assert not t.contains(bad)


def test_leapfrog_membership():
    z, t = leapfrog_fixture()
    # {(0,1+m),(0,-1-m)} and {(0,-1-m),(0,2+m)} for m >= 0
    for a in (z.arc(1, -1), z.arc(-1, 2), z.arc(2, -2), z.arc(-2, 3)):
        assert t.contains(a)
    for bad in (z.arc(1, -2), z.arc(0, 2), z.arc(2, -3)):
        assert not t.contains(bad)


# -- validate -------------------------------------------------------------


def test_validate_pentagon_fan():
    _, t = pentagon_fan()
    assert validate(t).ok


def test_validate_pentagon_missing_diagonal():
    z = ZModel.finite(5)
    rep = validate(Triangulation.make(z, {z.arc(0, 2)}))
    assert not rep.ok
    assert rep.reason == "non-triangular face"


def test_validate_crossing_pair():
    z = ZModel.finite(6)
    rep = validate(Triangulation.make(z, {z.arc(0, 2), z.arc(1, 3), z.arc(0, 3)}))
    assert not rep.ok
    assert rep.reason == "crossing pair"


def test_validate_fountain():
    _, t = fountain_fixture()
    assert validate(t).ok


def test_validate_leapfrog():
    _, t = leapfrog_fixture()
    assert validate(t).ok


def test_validate_missing_tail():
    z = ZModel.blocks(1)
    rep = validate(Triangulation.make(z, set()))
    assert not rep.ok
    assert rep.reason == "tail coverage"


def test_tail_coverage_witness_is_gap_ranges():
    z = ZModel.blocks(6)
    t = Triangulation.make(z, set(), {g: Leapfrog(2, -2) for g in (1, 3, 7)})
    rep = validate(t)
    assert (rep.ok, rep.reason) == (False, "tail coverage")
    assert rep.witness == {"missing": [(0, 0), (2, 2), (4, 5)], "extra": [7]}


def test_finite_core_of_n_minus_3_needs_no_face_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("face walked")

    monkeypatch.setattr(Triangulation, "triangle_on_side", no_walk)
    for n in (5, 8, 12):
        z = ZModel.finite(n)
        assert validate(Triangulation.make(
            z, {z.arc(0, j) for j in range(2, n - 1)})).ok


def test_validate_fountain_gap_is_invalid():
    z = ZModel.blocks(1)
    # right_from 3 leaves the face (0,1,2,3) untriangulated
    rep = validate(Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 3, -2)}))
    assert not rep.ok


def test_validate_fountain_with_core():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, {z.arc(0, 2)}, {0: Fountain(Vertex(0, 0), 3, -2)})
    assert validate(t).ok


def test_validate_blocks2_two_fountains():
    z = ZModel.blocks(2)
    t = Triangulation.make(
        z,
        {z.arc(Vertex(0, 0), Vertex(1, 0))},
        {0: Fountain(Vertex(0, 0), 2, -1),   # toward L(0): {0,(0,i>=2)}, {0,(1,j<=-1)}
         1: Fountain(Vertex(1, 0), 2, -1)})  # toward L(1): {(1,0),(1,i>=2)}, {(1,0),(0,j<=-1)}
    # needs the short spokes to be diagonals and faces to close up
    rep = validate(t)
    assert rep.ok, rep


def test_catalan_counts():
    expected = {5: 5, 6: 14, 7: 42, 8: 132, 9: 429}
    for n, c in expected.items():
        tris = enumerate_triangulations(ZModel.finite(n))
        assert len(tris) == c
        assert len({t.core for t in tris}) == c


def test_enumerated_triangulations_all_validate():
    for n in (5, 6, 7):
        for t in enumerate_triangulations(ZModel.finite(n)):
            assert validate(t).ok


# -- sup/inf --------------------------------------------------------------


def test_sup_inf_pentagon():
    z, t = pentagon_fan()
    assert t.sup_connected(z.v(0), z.v(3), z.v(4)) == z.v(4)
    assert t.inf_connected(z.v(2), z.v(0), z.v(0), diagonals_only=True) == z.v(0)


def test_sup_fountain_edge_beats_tail():
    z, t = fountain_fixture()
    got = t.sup_connected(Vertex(0, 0), Vertex(0, 3), Vertex(0, -1))
    assert got == Vertex(0, -1)


def test_sup_fountain_symbolic():
    z, t = fountain_fixture()
    # diagonals only, interval stopping before the edge neighbour:
    # spokes {0, i} accumulate at L(0) but {0,-2} lies beyond it
    got = t.sup_connected(Vertex(0, 0), Vertex(0, 3), Vertex(0, -2),
                          diagonals_only=True)
    assert got == Vertex(0, -2)


def brute_extremal(pairs, n, x, lo, hi, edges, want_sup):
    """The last (sup) or first (inf) vertex of [lo, hi], read
    counterclockwise from lo, joined to x by a diagonal of t or, when
    edges are allowed, by an edge of the n-gon: x + 1 or x - 1 mod n."""
    joined = [lo + j for j in range((hi - lo) % n + 1)
              if frozenset({(lo + j) % n, x}) in pairs
              or (edges and (lo + j - x) % n in (1, n - 1))]
    if not joined:
        return None
    return (joined[-1] if want_sup else joined[0]) % n


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_one_point_queries_match_enumeration_on_polygons(n):
    """sup_connected and inf_connected on every triangulation of the
    n-gon, at every x and over every interval [lo, hi] that does not
    contain x, with and without edges, against enumeration.  Intervals
    that wrap past vertex 0 (lo > hi) are included: there the keys of
    A are not one sorted range, the second branch of the bisection."""
    z = ZModel.finite(n)
    wrapped = 0
    for t in enumerate_triangulations(z):
        pairs = {frozenset({a.p.idx, a.q.idx}) for a in t.core}
        for x in range(n):
            for lo in range(n):
                for hi in range(n):
                    if (x - lo) % n <= (hi - lo) % n:
                        continue  # [lo, hi] contains x
                    wrapped += lo > hi
                    for diagonals_only in (False, True):
                        for want_sup, query in ((True, t.sup_connected),
                                                (False, t.inf_connected)):
                            got = query(z.v(x), z.v(lo), z.v(hi),
                                        diagonals_only=diagonals_only)
                            want = brute_extremal(pairs, n, x, lo, hi,
                                                  not diagonals_only,
                                                  want_sup)
                            assert (None if got is None else got.idx) \
                                == want, (t.core, x, lo, hi, diagonals_only)
    assert wrapped > 0


def test_inf_connected_none():
    z, t = pentagon_fan()
    assert t.inf_connected(z.v(1), z.v(3), z.v(4), diagonals_only=True) is None


def test_interval_precondition():
    """An interval [lo, hi] holding x is refused with one message, by
    both queries, for vertices and for coerced arguments, on an n-gon
    and on a Blocks model."""
    z, t = pentagon_fan()
    zf, tf = fountain_fixture()
    cases = [(t, z.v(3), z.v(2), z.v(4)), (t, z.v(0), z.v(4), z.v(1)),
             (t, z.v(2), z.v(2), z.v(2)), (t, 3, 2, 4),
             (tf, zf.v(0), zf.v(-1), zf.v(1)), (tf, (0, 5), (0, 5), (0, 9))]
    for tri, x, lo, hi in cases:
        for query in (tri.sup_connected, tri.inf_connected):
            for diagonals_only in (False, True):
                with pytest.raises(
                        ModelError,
                        match=r"^interval \[lo, hi\] must not contain x$"):
                    query(x, lo, hi, diagonals_only)


# -- third_vertex ---------------------------------------------------------


def test_third_vertex_pentagon():
    z, t = pentagon_fan()
    d = z.arc(0, 2)
    assert t.third_vertex(d, z.v(1)) == z.v(1)
    assert t.third_vertex(d, z.v(3)) == z.v(3)
    assert t.third_vertex(d, z.v(4)) == z.v(3)


def test_third_vertex_fountain():
    z, t = fountain_fixture()
    assert t.third_vertex(z.arc(0, 4), Vertex(0, 5)) == Vertex(0, 5)
    assert t.third_vertex(z.arc(0, 4), Vertex(0, 3)) == Vertex(0, 3)
    assert t.third_vertex(z.arc(0, 2), Vertex(0, 1)) == Vertex(0, 1)


def test_third_vertex_all_triangles():
    for n in (5, 6, 7):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for d in t.core:
                for side in (z.succ(d.p), z.succ(d.q)):
                    a, h, b = t.triangle_on_side(d, side)
                    assert t.contains_or_edge(Arc(a, h))
                    assert t.contains_or_edge(Arc(h, b))


# -- bridge / crossing quadruples ----------------------------------------


def test_bridge_pentagon_degenerate():
    z, t = pentagon_fan()
    got = t.bridge_quadruple(z.v(2), z.v(2), z.v(0), z.v(0))
    assert got is not None
    i0, s0, h0, i1, s1, h1 = got
    assert (i0, s0, i1, s1) == (z.v(2), z.v(2), z.v(0), z.v(0))
    assert {h0, h1} == {z.v(1), z.v(3)}


def test_bridge_none():
    z, t = pentagon_fan()
    assert t.bridge_quadruple(z.v(1), z.v(1), z.v(4), z.v(4)) is None


def test_bridge_hexagon():
    z, t = hexagon_cyclic()
    got = t.bridge_quadruple(z.v(2), z.v(3), z.v(5), z.v(0))
    assert got is not None
    i0, s0, h0, i1, s1, h1 = got
    assert (i0, s0, i1, s1) == (z.v(2), z.v(2), z.v(0), z.v(0))
    # {i1, h0, s0} = {0, 4, 2} with b0 < h0 < a1; {i0, h1, s1} = {2, 1, 0}
    assert h0 == z.v(4)
    assert h1 == z.v(1)


def test_crossing_quadruple_pentagon():
    z, t = pentagon_fan()
    got = crossing_quadruple(t, z.arc(1, 4))
    assert got is not None
    i0, s0, i1, s1 = got
    # crossing diagonals of {1,4} are {0,2},{0,3}; v0 = 1, v1 = 4
    assert (i0, s0, i1, s1) == (z.v(0), z.v(0), z.v(2), z.v(3))


def test_crossing_quadruple_inequalities():
    # the eight cyclic-betweenness constraints of the extremal
    # crossing configuration
    for n in (5, 6):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for i, j in combinations(range(n), 2):
                v = z.arc(i, j)
                if not z.is_diagonal(v):
                    continue
                got = crossing_quadruple(t, v)
                crossers = [d for d in t.core if z.crosses(v, d)]
                if not crossers:
                    assert got is None
                    continue
                i0, s0, i1, s1 = got
                v0, v1 = v.p, v.q
                r = lambda p: z.rel(p, i0)
                assert r(i0) <= r(s0) < r(v0) < r(i1) <= r(s1) < r(v1)
                for tri in ({i0, v1, s1}, {i1, v0, s0}):
                    pts = sorted(tri, key=z.key)
                    for x, y in combinations(pts, 2):
                        assert t.contains_or_edge(Arc(x, y))


def test_crossing_quadruple_fountain():
    z, t = fountain_fixture()
    got = crossing_quadruple(t, z.arc(1, -1))
    assert got is not None
    i0, s0, i1, s1 = got
    # crossers are the spokes {0,n}, |n| >= 2; normalized v0 = -1, v1 = 1,
    # so the first interval is [2, -2] and the second is [0, 0]
    assert (i0, s0) == (Vertex(0, 2), Vertex(0, -2))
    assert (i1, s1) == (Vertex(0, 0), Vertex(0, 0))


# -- ears -----------------------------------------------------------------


def test_ears():
    z, t = pentagon_fan()
    assert t.ears() == {z.v(1), z.v(4)}
    z6, t6 = hexagon_cyclic()
    assert t6.ears() == {z6.v(1), z6.v(3), z6.v(5)}
    zf, tf = fountain_fixture()
    assert tf.ears() == {Vertex(0, 1), Vertex(0, -1)}
    zl, tl = leapfrog_fixture()
    assert tl.ears() == {Vertex(0, 0)}


def test_ears_exhaustive():
    """On every triangulation of the n-gon, n = 4..9, the ears are the
    vertices v with {pred v, succ v} in T."""
    count = 0
    for n in range(4, 10):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            assert t.ears() == {v for v in z.vertices() if Arc(
                z.pred(v), z.succ(v)) in t.core}, t.core
            count += 1
    assert count == 2 + 5 + 14 + 42 + 132 + 429


# -- flip -----------------------------------------------------------------


def test_flip_pentagon():
    z, t = pentagon_fan()
    t2, dstar = t.flip(z.arc(0, 2))
    assert dstar == z.arc(1, 3)
    assert t2.core == frozenset({z.arc(1, 3), z.arc(0, 3)})
    t3, back = t2.flip(dstar)
    assert back == z.arc(0, 2)
    assert t3 == t


def test_flip_square():
    z = ZModel.finite(4)
    t = Triangulation.make(z, {z.arc(0, 2)})
    t2, dstar = t.flip(z.arc(0, 2))
    assert dstar == z.arc(1, 3)
    assert t2.core == frozenset({z.arc(1, 3)})


def test_flip_hexagon():
    z, t = hexagon_cyclic()
    _, dstar = t.flip(z.arc(0, 2))
    assert dstar == z.arc(1, 4)


def test_flip_preserves_validity():
    for n in (5, 6):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for d in t.core:
                t2, _ = t.flip(d)
                assert validate(t2).ok


def test_flip_core_next_to_tail():
    z = ZModel.blocks(1)
    t = Triangulation.make(z, {z.arc(0, 2)}, {0: Fountain(Vertex(0, 0), 3, -2)})
    t2, dstar = t.flip(z.arc(0, 2))
    assert dstar == z.arc(1, 3)
    assert validate(t2).ok


# -- dual quiver ----------------------------------------------------------


def test_dual_quiver_pentagon_fan():
    z, t = pentagon_fan()
    q = t.dual_quiver(reference_nodes(t))
    assert set(q.nodes) == t.core
    assert q.arrows == ((z.arc(0, 3), z.arc(0, 2)),)
    assert is_acyclic(q)


def test_dual_quiver_hexagon_cycle():
    z, t = hexagon_cyclic()
    q = t.dual_quiver(reference_nodes(t))
    assert len(q.arrows) == 3
    assert not is_acyclic(q)


def test_dual_quiver_fountain_path():
    z, t = fountain_fixture()
    q = t.dual_quiver(reference_nodes(t))
    # fan of an infinite strip: within the window, in/out degree <= 1
    # along a single two-sided path
    indeg = {n: 0 for n in q.nodes}
    outdeg = {n: 0 for n in q.nodes}
    for s, d in q.arrows:
        outdeg[s] += 1
        indeg[d] += 1
    assert is_acyclic(q)
    assert all(v <= 1 for v in indeg.values())
    assert all(v <= 1 for v in outdeg.values())


def test_is_acyclic_on_long_path_and_cycle():
    z = ZModel.blocks(1)
    nodes = tuple(z.arc(i, i + 2) for i in range(5000))
    path = tuple(zip(nodes, nodes[1:]))
    assert is_acyclic(DualQuiver(nodes, path))
    cycle = path + ((nodes[-1], nodes[0]),)
    assert not is_acyclic(DualQuiver(nodes, cycle))


def test_dual_quiver_no_loops_or_2cycles():
    for n in (5, 6, 7):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            q = t.dual_quiver(reference_nodes(t))
            pairs = set(q.arrows)
            for s, d in pairs:
                assert s != d
                assert (d, s) not in pairs


# -- arcs within an index window ---------------------------------------------


# 25 arcs inside [-6, 6], all far from the tails' finite ends
FAR = Triangulation.make(ZModel.blocks(2), (), {
    0: Leapfrog(-100, 100), 1: Fountain(Vertex(0, -100), 101, -102)})


def _brute_arcs_within(t, lo, hi):
    z = t.z
    verts = [Vertex(b, i) for b in range(z.k) for i in range(lo, hi + 1)]
    return {a for a in (Arc(p, q) for p, q in combinations(verts, 2))
            if z.is_diagonal(a) and t.contains(a)}


def test_arcs_within_is_brute_force():
    """Every arc of T with both ends in [lo, hi], each once, in key
    order, however far the window lies from the tails' finite ends; on
    an n-gon, every arc of T."""
    assert validate(FAR).ok and len(FAR.arcs_within((-6, 6))) == 25
    rng = random.Random(3)
    cases = [(FAR, 0)] + [(_filled(rng, k), m) for k in (1, 2, 3)
                          for _ in range(3) for m in (0, 40)]
    for t, m in cases:
        t = _shift(t, m)
        z = t.z
        for lo, hi in ((-6, 6), (-2, 9), (3, 3), (5, -5), (-30, -20)):
            got = t.arcs_within((lo + m, hi + m))
            assert len(set(got)) == len(got)
            assert set(got) == _brute_arcs_within(t, lo + m, hi + m)
            assert got == sorted(got, key=lambda a: (z.key(a.p), z.key(a.q)))
    # on an n-gon every arc, whatever the window
    for t in enumerate_triangulations(ZModel.finite(7))[::7]:
        for w in ((-6, 6), (2, 3), (5, -5), (10, 20)):
            assert t.arcs_within(w) == sorted(t.core, key=t.z.arc_key)


# -- one-point queries against explicit enumeration ---------------------------

# Queries use vertices within SPAN of the offset m, near the data of the
# generated triangulations (within 5 of m).  The enumeration lists every
# tail member within REACH indices of its subfamily's finite end: every
# member with an endpoint within SPAN of m, and for a constant endpoint
# every member whose other endpoint is.
SPAN, REACH = 7, 40


def _joined(t: Triangulation) -> dict[Vertex, set[Vertex]]:
    """Each vertex mapped to the vertices joined to it by the core or by
    a tail member listed one by one."""
    arcs = list(t.core)
    for sf in t.subfamilies:
        end = sf.imin if sf.imin is not None else sf.imax
        arcs += [sf.member(i) for i in range(end - REACH, end + REACH + 1)
                 if sf.in_range(i)]
    out: dict[Vertex, set[Vertex]] = {}
    for a in arcs:
        out.setdefault(a.p, set()).add(a.q)
        out.setdefault(a.q, set()).add(a.p)
    return out


def _brute_one_point(joined, x, verts, edges, want_min):
    """The first (want_min) or last of verts, listed counterclockwise,
    joined to x by a listed arc or, when edges, by an edge."""
    hits = [v for v in verts if v in joined.get(x, ()) or (
        edges and v.block == x.block and abs(v.idx - x.idx) == 1)]
    return (hits[0] if want_min else hits[-1]) if hits else None


@pytest.mark.parametrize("m", [0, 10 ** 6])
def test_one_point_queries_match_enumeration_on_generated_blocks(m):
    """sup_connected, inf_connected and third_vertex on generated valid
    Blocks(1..3) triangulations, over intervals inside one block (they
    stop short of every limit point), against the enumerated core, edge
    and tail members."""
    rng = random.Random(12)
    queries = 0
    for k in (1, 2, 3):
        for _ in range(4):
            t = _shift(_flipped(rng, k), m)
            assert validate(t).ok
            joined = _joined(t)
            verts = [Vertex(b, i) for b in range(k)
                     for i in range(m - SPAN, m + SPAN + 1)]
            for _ in range(200):
                x, b = rng.choice(verts), rng.randrange(k)
                i, j = sorted(rng.randint(m - SPAN, m + SPAN) for _ in "ij")
                if x.block == b and i <= x.idx <= j:
                    continue
                lo, hi = Vertex(b, i), Vertex(b, j)
                span = [Vertex(b, h) for h in range(i, j + 1)]
                for diagonals_only in (False, True):
                    for want_min, query in ((False, t.sup_connected),
                                            (True, t.inf_connected)):
                        assert query(x, lo, hi, diagonals_only) == \
                            _brute_one_point(joined, x, span,
                                             not diagonals_only, want_min)
                        queries += 1
            for b in range(k):
                for i, j in combinations(range(m - SPAN, m + SPAN + 1), 2):
                    if j - i < 2:
                        continue
                    u, w = Vertex(b, i), Vertex(b, j)
                    inner = [Vertex(b, h) for h in range(i + 1, j)]
                    assert t.third_vertex(Arc(u, w), inner[0]) == \
                        _brute_one_point(joined, w, inner, True, True)
                    queries += 1
    assert queries > 8_000


@pytest.mark.parametrize("m", [0, 10 ** 6])
def test_one_point_queries_on_the_fountain_through_its_limit(m):
    """On the fountain fixture, over every interval of a window, those
    through L(0) included: each answer is the enumerated one, and none
    is an UnattainedError, as before the one-point kernel.  A fountain's
    members accumulate at L(0) from both sides, so an interval through
    L(0) holds them on both sides, and its first and last ones near its
    ends are attained."""
    t = _shift(fountain_fixture()[1], m)
    joined = _joined(t)
    window = range(m - SPAN, m + SPAN + 1)
    for x, i, j in ((x, i, j) for x in window for i in window for j in window):
        if (i <= x <= j) if i <= j else (x >= i or x <= j):
            continue
        span = ([Vertex(0, h) for h in range(i, j + 1)] if i <= j else
                [Vertex(0, h) for h in range(i, m + REACH - 8)]
                + [Vertex(0, h) for h in range(m - REACH + 8, j + 1)])
        for diagonals_only in (False, True):
            for want_min, query in ((False, t.sup_connected),
                                    (True, t.inf_connected)):
                got = query(Vertex(0, x), Vertex(0, i), Vertex(0, j),
                            diagonals_only)
                assert got == _brute_one_point(
                    joined, Vertex(0, x), span, not diagonals_only, want_min)
