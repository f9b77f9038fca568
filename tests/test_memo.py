"""Answers memoized on a triangulation: the crossing order of a pair,
dimension vectors, ``in_X`` and ``root_of_arc`` equal the answers of a
freshly built, equal triangulation; failures are never stored; the
pair (f, e) is its own entry, ordered the other way; and no memo keeps
its triangulation alive.  ``Triangulation.make`` returns the live
equal triangulation, so its memos serve every equal value, and a
shared instance answers as a cold one does."""

from __future__ import annotations

import gc
import platform
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from infgon.cvector import (CVectorQuery, cvector_full, dimension_vector,
                            realize_dimension_vector)
from infgon.decomposition import (crossing_order, decompose_row, in_X,
                                  maximal_pairs, root_of_arc,
                                  unique_maximal_iff_acyclic_report)
from infgon.homindex import index
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  UnattainedError, enumerate_triangulations,
                                  validate)
from infgon.zmodel import Arc, Limit, ModelError, Vertex, ZModel, suspend

from test_tail_runs import OFFSETS, blocks2, fountain, leapfrog, points, tails
from test_validate import all_diagonals

cpython_only = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="frees by reference counting")


def _fresh(t: Triangulation) -> Triangulation:
    """An equal triangulation with nothing memoized."""
    return Triangulation(t.z, t.core, t.tails)


def _outcome(fn, *args):
    """fn's answer, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ModelError, UnattainedError) as exc:
        return (type(exc), str(exc))


def _order_answers(t, e, f, probes):
    """What Y = crossing_order(t, e, f) says: its order type, up to three
    members at each end it has, their predecessors and successors, asked
    twice (the second time from Y's neighbour table), and the least and
    greatest member crossing each probe."""
    y = crossing_order(t, e, f)
    ends = ((y.first(3) if y.has_least else [])
            + (y.last(3) if y.has_greatest else []))
    neighbors = [[(_outcome(y.pred_in, a), _outcome(y.succ_in, a))
                  for a in ends] for _ in range(2)]
    assert neighbors[1] == neighbors[0]
    return (str(y.descriptor()), y.has_least, y.has_greatest, ends,
            neighbors[0],
            [_outcome(y.crossing_interval_of, v) for v in probes])


def _assert_memo_agrees(t, e, f, probes):
    warm = _outcome(_order_answers, t, e, f, probes)
    assert _outcome(_order_answers, t, e, f, probes) == warm
    assert _outcome(_order_answers, _fresh(t), e, f, probes) == warm
    for v in probes:
        assert (_outcome(dimension_vector, t, v)
                == _outcome(dimension_vector, _fresh(t), v))
        dv = dimension_vector(t, v)
        if dv.is_zero():
            continue
        fresh = _fresh(t)
        assert (_outcome(in_X, t, e, f, dv), _outcome(root_of_arc, t, e, f, v)
                ) == (_outcome(in_X, fresh, e, f, dv),
                      _outcome(root_of_arc, fresh, e, f, v))


@pytest.mark.parametrize("m", OFFSETS)
@pytest.mark.parametrize("build", [fountain, leapfrog, blocks2])
def test_memoized_answers_equal_fresh_ones_on_fixtures(build, m):
    t = build(m)
    z = t.z
    verts = [Vertex(b, i) for b in range(z.k) for i in range(m - 6, m + 7)]
    probes = [Arc(p, q) for i, p in enumerate(verts) for q in verts[i + 1:]
              if z.is_diagonal(Arc(p, q))][::5]
    for pair in maximal_pairs(t):
        e, f = sorted(pair, key=z.key)
        for e, f in ((e, f), (f, e)):
            _assert_memo_agrees(t, e, f, probes)
            assert crossing_order(t, e, f) is crossing_order(t, e, f)


@st.composite
def tail_triangulations(draw, m):
    """A triangulation of Blocks(1) or Blocks(2) with one generated tail
    per limit point (valid or not), a pair (e, f) and probe arcs."""
    k = draw(st.sampled_from([1, 2]))
    t = Triangulation.make(ZModel.blocks(k), set(),
                           {g: draw(tails(k, m)) for g in range(k)})
    e, f = draw(st.lists(points(k, m), min_size=2, max_size=2, unique=True))
    ends = st.lists(points(k, m), min_size=2, max_size=2, unique=True)
    probes = [Arc(p, q) for p, q in draw(st.lists(ends, max_size=4))]
    return t, e, f, probes


@pytest.mark.parametrize("m", OFFSETS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_memoized_answers_equal_fresh_ones_on_generated_tails(m, data):
    t, e, f, probes = data.draw(tail_triangulations(m))
    _assert_memo_agrees(t, e, f, probes)


def test_failures_are_raised_on_every_call():
    z = ZModel.finite(5)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})
    for _ in range(2):
        with pytest.raises(ModelError, match="empty Y"):
            crossing_order(t, z.v(3), z.v(4))
    assert crossing_order(t, z.v(1), z.v(4)).members == (z.arc(0, 2),
                                                         z.arc(0, 3))
    z1 = ZModel.blocks(1)
    t1 = Triangulation.make(z1, set(), {0: Fountain(Vertex(0, 0), 2, -2)})
    c = dimension_vector(t1, z1.arc(1, -1))
    for _ in range(2):
        for e in (Vertex(2, 0), [0, 1]):
            with pytest.raises(ModelError):
                crossing_order(t1, e, Vertex(0, 1))
        with pytest.raises(ModelError):
            in_X(t1, Vertex(2, 0), Vertex(0, 1), c)
        with pytest.raises(ModelError):
            in_X(t1, Vertex(0, 1), Vertex(0, 1), c)
    assert in_X(t1, Vertex(0, 1), Vertex(0, -1), c)


def test_reversed_pair_reads_the_order_backwards():
    z = ZModel.finite(5)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})
    y, r = crossing_order(t, 1, 4), crossing_order(t, 4, 1)
    assert r is not y
    assert r.members == tuple(reversed(y.members))
    z1 = ZModel.blocks(1)
    tf = Triangulation.make(z1, set(), {0: Fountain(Vertex(0, 0), 2, -2)})
    y, r = crossing_order(tf, 1, -1), crossing_order(tf, -1, 1)
    assert str(r.descriptor()) == str(y.descriptor()) == "omega + omega*"
    assert r.first(3) == y.last(3)[::-1]
    assert r.last(3) == y.first(3)[::-1]
    tl = Triangulation.make(z1, set(), {0: Leapfrog(1, -1)})
    y, r = crossing_order(tl, Vertex(0, 0), Limit(0)), \
        crossing_order(tl, Limit(0), Vertex(0, 0))
    assert (str(y.descriptor()), str(r.descriptor())) == ("omega", "omega*")
    assert r.last(4) == y.first(4)[::-1]


def test_dimension_vector_returns_a_fresh_covector_each_call():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3), z.arc(0, 4)})
    v = z.arc(1, 5)
    first, second = dimension_vector(t, v), dimension_vector(t, v)
    assert first == second and first is not second
    assert first.explicit is not second.explicit
    first.explicit.clear()
    assert dimension_vector(t, v) == second
    assert dimension_vector(t, v).explicit == {z.arc(0, 2): 1, z.arc(0, 3): 1,
                                               z.arc(0, 4): 1}


def test_dimension_vector_raises_on_every_call():
    z = ZModel.finite(5)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(2, 3)})
    for _ in range(3):
        with pytest.raises(ModelError, match="is not a diagonal"):
            dimension_vector(t, z.arc(1, 3))


def _tail_queries(t, m):
    """What the tail benchmark asks of t, and every decompose row of
    the window [m - 6, m + 6] for each oriented maximal pair."""
    z = t.z
    assert validate(t).ok
    for pair in maximal_pairs(t):
        e, f = sorted(pair, key=z.key)
        for e, f in ((e, f), (f, e)):
            str(crossing_order(t, e, f).descriptor())
            verts = [Vertex(b, i) for b in range(z.k)
                     for i in range(m - 6, m + 7)]
            for p, q in combinations(verts, 2):
                if z.is_diagonal(Arc(p, q)):
                    decompose_row(t, e, f, Arc(p, q))
    unique_maximal_iff_acyclic_report(t)
    for d in t.window_nodes(6):
        index(t, suspend(z, d))


def _realize_round_trip(t, v):
    dimension_vector(t, v)
    u_tri, u = realize_dimension_vector(t, v)
    cvector_full(CVectorQuery(t, u_tri, u))
    return weakref.ref(u_tri)


@cpython_only
@pytest.mark.parametrize("m", [0, 10 ** 6])
def test_triangulations_are_freed_without_the_cyclic_gc(m):
    """No memo value refers back to its triangulation, so reference
    counting frees it once the caller lets go, memos and all."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build in (fountain, leapfrog, blocks2):
            t = build(m)
            _tail_queries(t, m)
            assert t.__dict__["_memo_dimension_vector"]
            ref = weakref.ref(t)
            del t
            assert ref() is None, build.__name__
        z = ZModel.finite(8)
        t = Triangulation.make(z, {z.arc(0, j) for j in range(2, 7)})
        ref_u = _realize_round_trip(t, z.arc(1, 4))
        ref = weakref.ref(t)
        del t
        assert ref() is None and ref_u() is None
    finally:
        if enabled:
            gc.enable()


def test_a_crossing_set_outliving_its_triangulation_says_so():
    t = fountain(0)
    y = crossing_order(t, Vertex(0, -1), Vertex(0, 1))
    a, v = y.first(1)[0], Arc(Vertex(0, -3), Vertex(0, 3))
    y.crossing_interval_of(v)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    for ask in (lambda: y.t, lambda: y.succ_in(a),
                lambda: y.crossing_interval_of(v)):
        with pytest.raises(ModelError,
                           match="triangulation of this crossing set is gone"):
            ask()


# -- one instance per value ------------------------------------------------


def _unheld():
    """(z, core, tails) of triangulations that no other test keeps
    alive: a fan of the 11-gon, and two fountains of Blocks(2) far out,
    their tails given out of gap order."""
    z, b2, m = ZModel.finite(11), ZModel.blocks(2), 7_777
    return [(z, [z.arc(3, j) for j in (5, 6, 7, 8, 9, 10, 0, 1)], None),
            (b2, [Arc(Vertex(0, m), Vertex(1, m))],
             {1: Fountain(Vertex(1, m), m + 2, m - 1),
              0: Fountain(Vertex(0, m), m + 2, m - 1)})]


@cpython_only
@pytest.mark.parametrize("case", [0, 1])
def test_make_returns_the_live_equal_triangulation(case):
    z, core, tails = _unheld()[case]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = Triangulation.make(z, core, tails)
        same_z = ZModel(z.n, z.k)
        assert Triangulation.make(same_z, set(reversed(core)),
                                  tails and dict(sorted(tails.items()))) is t
        cold = Triangulation(t.z, t.core, t.tails)
        assert cold == t and cold is not t
        assert Triangulation.make(z, core, tails) is t
        d = min(t.core, key=z.arc_key)
        assert index(t, suspend(z, d)) == index(cold, suspend(z, d))
        assert t.third_vertex(d, z.succ(d.p)) == cold.third_vertex(
            d, z.succ(d.p))
        ref = weakref.ref(t)
        del t
        assert ref() is None
        again = Triangulation.make(z, core, tails)
        assert again is not cold and again == cold
        assert not [name for name in vars(again) if name.startswith("_memo_")]
    finally:
        if enabled:
            gc.enable()


def _shared_answers(t, diagonals):
    """index of every suspended diagonal, third_vertex on both sides of
    every diagonal, and the exchange partner of every core diagonal."""
    z = t.z
    out = []
    for a in diagonals:
        out.append(_outcome(index, t, suspend(z, a)))
        out += [_outcome(t.third_vertex, a, side)
                for side in (z.succ(a.p), z.succ(a.q))]
    out += [t.exchange_partner(d) for d in sorted(t.core, key=z.arc_key)]
    return out


def _round_trips(t, diagonals, cold: bool):
    """realize -> cvector_full for every diagonal v crossing t; with
    cold, the c-vector is taken over a cold copy of U."""
    out = []
    for v in diagonals:
        if v in t.core:
            continue
        u_tri, u = realize_dimension_vector(t, v)
        if cold:
            u_tri = _fresh(u_tri)
        out.append((u_tri, u, cvector_full(CVectorQuery(t, u_tri, u))))
    return out


@pytest.mark.parametrize("n", [5, 6, 7])
def test_shared_and_cold_triangulations_answer_alike(n):
    z = ZModel.finite(n)
    diagonals = all_diagonals(z)
    tris = enumerate_triangulations(z)
    for t in tris:
        assert Triangulation.make(z, t.core) is t
        warm = _shared_answers(t, diagonals)
        trips = _round_trips(t, diagonals, False)
        assert _shared_answers(t, diagonals) == warm  # from the memos
        cold = _fresh(t)
        assert _shared_answers(cold, diagonals) == warm
        assert _round_trips(cold, diagonals, True) == trips


def _octagon_sweep():
    z = ZModel.finite(8)
    for t in enumerate_triangulations(z):
        for v in all_diagonals(z):
            if v not in t.core:
                _realize_round_trip(t, v)


@cpython_only
def test_a_dropped_realization_sweep_leaves_no_triangulation_alive():
    """Each benchmark pass enumerates afresh: once a sweep is dropped,
    reference counting alone frees every triangulation it built or
    shared, so the next sweep starts cold."""
    def alive():
        return sum(type(o) is Triangulation for o in gc.get_objects())
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = alive()
        _octagon_sweep()
        assert alive() == before
    finally:
        if enabled:
            gc.enable()


def test_third_vertex_stores_no_failure(monkeypatch):
    """The side of an edge without interior holds no closure point but
    the edge's endpoints, which the side test refuses; and a failure of
    the engine, here stubbed as it meets invalid input, is raised on
    every call and leaves the apex memo as it was."""
    z = ZModel.finite(5)
    t = Triangulation(z, frozenset({z.arc(0, 2), z.arc(0, 3)}))
    edge, d = z.arc(0, 1), z.arc(0, 2)
    for _ in range(2):
        for side in edge.endpoints():
            with pytest.raises(ModelError, match="side marker"):
                t.third_vertex(edge, side)
    assert not t._memo("third_vertex")

    def unattained(*args):
        raise UnattainedError("infimum approaches a limit point")
    for stub in (unattained, lambda *args: None):
        monkeypatch.setattr(Triangulation, "_extremal_connected", stub)
        for _ in range(2):
            with pytest.raises(UnattainedError):
                t.third_vertex(d, z.v(1))
        assert not t._memo("third_vertex")
    monkeypatch.undo()
    assert t.third_vertex(d, z.v(1)) == z.v(1)
    assert t._memo("third_vertex") == {(z.v(0), z.v(2)): z.v(1)}


def test_tail_free_models_build_no_tail_tables():
    """A model without tails keeps no tail-member memo: shared, such a
    table would hold one None per arc asked about for a whole sweep."""
    z = ZModel.finite(6)
    t = Triangulation(z, frozenset({z.arc(0, 2), z.arc(0, 3), z.arc(0, 4)}))
    assert t.contains(z.arc(0, 3)) and not t.contains(z.arc(1, 3))
    assert t.tail_ref_of(z.arc(1, 3)) is None
    assert dimension_vector(t, z.arc(1, 3)).explicit == {z.arc(0, 2): 1}
    assert not {"_memo_tail_ref", "_memo_dimension_parts"} & set(vars(t))
    tf = _fresh(fountain(0))
    assert tf.contains(Arc(Vertex(0, 0), Vertex(0, 5)))
    assert not tf.contains(Arc(Vertex(0, 1), Vertex(0, 5)))
    assert len(tf._memo("tail_ref")) == 2
