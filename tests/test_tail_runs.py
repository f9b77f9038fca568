"""The breakpoint-runs procedure for tail families, checked against
brute force, and the offset invariance it buys: every answer at vertex
offset m is the m = 0 answer shifted, for the same work."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from infgon.cvector import (CVectorQuery, cvector_full, dimension_vector,
                            realize_dimension_vector)
from infgon.decomposition import maximal_pairs
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  _crossing_runs, _SubFamily,
                                  _subfamilies_of_tail,
                                  enumerate_triangulations, validate)
from infgon.zmodel import (Arc, Limit, ModelError, Vertex, ZModel,
                           keys_cross, keys_in_closed)

from test_validate import is_acyclic, reference_nodes

OFFSETS = (0, 100, 1000)


# -- brute-force oracle for _SubFamily.runs ---------------------------------


def tails(k: int, m: int):
    """A fountain or leapfrog of Blocks(k) with its data within 6 of
    offset m, valid or not."""
    small = st.integers(-6, 6)
    return st.one_of(
        st.builds(lambda b, i, r, l: Fountain(Vertex(b, m + i), m + r, m + l),
                  st.integers(0, k - 1), small, small, small),
        st.builds(lambda r, l: Leapfrog(m + r, m + l), small, small))


def points(k: int, m: int):
    """A closure point of Blocks(k): a vertex within 9 of offset m, or a
    limit point."""
    return st.one_of(
        st.builds(lambda b, i: Vertex(b, m + i),
                  st.integers(0, k - 1), st.integers(-9, 9)),
        st.builds(Limit, st.integers(0, k - 1)))


@st.composite
def family_and_bounds(draw, m):
    """A fountain or leapfrog subfamily of Blocks(1) or Blocks(2) at
    offset m (valid or not), and four closure points near the data."""
    k = draw(st.sampled_from([1, 2]))
    gap = draw(st.integers(0, k - 1))
    tail = draw(tails(k, m))
    z = ZModel.blocks(k)
    sf = draw(st.sampled_from(_subfamilies_of_tail(z, gap, tail)))
    bounds = draw(st.lists(points(k, m), min_size=4, max_size=4))
    return z, sf, bounds


def _reach(sf, bounds, m) -> int:
    """4 * (hull spread + largest index magnitude) for the family's
    finite end and the bounds: far past every breakpoint, which lies
    within 3 such magnitudes of 0, and past the offset m."""
    end = sf.imin if sf.imin is not None else sf.imax
    idx = [sf.vertex(0, end).idx, sf.vertex(1, end).idx, end]
    idx += [p.idx for p in bounds if isinstance(p, Vertex)]
    return 4 * (max(idx) - min(idx) + max(m, *map(abs, idx)) + 1)


def _assert_runs_exact(sf, runs, pred, reach):
    lo_r = -reach if sf.imin is None else sf.imin
    hi_r = reach if sf.imax is None else sf.imax
    truth = {i for i in range(lo_r, hi_r + 1) if pred(i)}
    got = set()
    for lo, hi in runs:
        got.update(range(lo_r if lo is None else lo,
                         (hi_r if hi is None else hi) + 1))
    assert got == truth
    # runs are maximal, ordered and disjoint
    for (_, h1), (l2, _) in zip(runs, runs[1:]):
        assert h1 is not None and l2 is not None and l2 > h1 + 1
    # an unbounded end is really unbounded: true at the far edge
    for lo, hi in runs:
        if lo is None:
            assert pred(-reach)
        if hi is None:
            assert pred(reach)


def _predicates(z, sf, bounds):
    a, b, c, d = bounds

    def in_intervals(i):
        u, w = sf.vertex(0, i), sf.vertex(1, i)
        key = z.key
        return (u != w and keys_in_closed(key(a), key(u), key(b))
                and keys_in_closed(key(c), key(w), key(d)))

    def not_diagonal(i):
        u, w = sf.vertex(0, i), sf.vertex(1, i)
        return u == w or not z.is_diagonal(Arc(u, w))

    return [((a, b, c, d), in_intervals), ((), not_diagonal)]


@pytest.mark.parametrize("m", OFFSETS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_runs_match_brute_force(m, data):
    z, sf, bounds = data.draw(family_and_bounds(m))
    reach = _reach(sf, bounds, m)
    for bnd, pred in _predicates(z, sf, bounds):
        _assert_runs_exact(sf, sf.runs(bnd, pred), pred, reach)


@st.composite
def family_and_arc(draw, m):
    """A fountain or leapfrog subfamily of Blocks(k), k = 1..3, at
    offset m (valid or not; a fountain base may lie in any block), and
    an arc near its data: two points, limit points among them, or a
    vertex and its neighbour."""
    k = draw(st.integers(1, 3))
    z = ZModel.blocks(k)
    sf = draw(st.sampled_from(_subfamilies_of_tail(
        z, draw(st.integers(0, k - 1)), draw(tails(k, m)))))
    p = draw(points(k, m))
    if isinstance(p, Vertex) and draw(st.booleans()):
        q = Vertex(p.block, p.idx + draw(st.sampled_from([-1, 1])))
    else:
        q = draw(points(k, m).filter(lambda q: q != p))
    return z, sf, Arc(p, q)


@pytest.mark.parametrize("m", OFFSETS + (10 ** 6, 10 ** 12))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_crossing_runs_match_brute_force_and_the_sampled_runs(m, data):
    """The closed-form crossing runs are the runs the breakpoint window
    finds for the crossing test on member keys, list for list, and the
    members crossing the arc by brute force.  Every breakpoint lies
    within the spread S of the vertex indices of the arc and of the
    end member from the family's finite end, so the brute force runs
    4(S + 1) past it either way, whatever the offset."""
    z, sf, arc = data.draw(family_and_arc(m))
    ka, kb = z.key(arc.p), z.key(arc.q)
    sampled = sf.runs((arc.p, arc.q), lambda i: keys_cross(
        ka, kb, sf.key(z, 0, i), sf.key(z, 1, i)))
    got = _crossing_runs(z, sf, arc)
    assert got == sampled

    def crosses(i):
        u, w = sf.vertex(0, i), sf.vertex(1, i)
        return (u != w and z.is_diagonal(Arc(u, w))
                and z.crosses(arc, Arc(u, w)))
    end = sf.imin if sf.imin is not None else sf.imax
    idx = [sf.vertex(0, end).idx, sf.vertex(1, end).idx]
    idx += [p.idx for p in arc.endpoints() if isinstance(p, Vertex)]
    reach = 4 * (max(idx) - min(idx) + 1)
    lo_r = end - reach if sf.imin is None else sf.imin
    hi_r = end + reach if sf.imax is None else sf.imax
    truth = {i for i in range(lo_r, hi_r + 1) if crosses(i)}
    assert truth == {i for lo, hi in got for i in range(
        lo_r if lo is None else lo, (hi_r if hi is None else hi) + 1)}
    for lo, hi in got:
        assert lo is not None or crosses(lo_r - 1)
        assert hi is not None or crosses(hi_r + 1)


def test_runs_window_does_not_depend_on_vertex_zero():
    """A family far from vertex 0 evaluates the same number of indices
    as its translate through vertex 0."""
    z = ZModel.blocks(1)
    counts = []
    for m in (0, 1000):
        seen = []
        for sf in _subfamilies_of_tail(z, 0, Fountain(Vertex(0, m), m + 2,
                                                      m - 2)):
            sf.runs((Vertex(0, m - 1), Vertex(0, m + 5)),
                    lambda i: seen.append(i) or False)
        counts.append(len(seen))
    assert counts[0] == counts[1]


# -- offset invariance on the tail fixtures ----------------------------------


def fountain(m: int) -> Triangulation:
    return Triangulation.make(ZModel.blocks(1), set(),
                              {0: Fountain(Vertex(0, m), m + 2, m - 2)})


def leapfrog(m: int) -> Triangulation:
    z = ZModel.blocks(1)
    return Triangulation.make(z, {z.arc(m - 2, m), z.arc(m, m + 2)},
                              {0: Leapfrog(m + 2, m - 2)})


def blocks2(m: int) -> Triangulation:
    return Triangulation.make(
        ZModel.blocks(2), {Arc(Vertex(0, m), Vertex(1, m))},
        {0: Fountain(Vertex(0, m), m + 2, m - 1),
         1: Fountain(Vertex(1, m), m + 2, m - 1)})


# fixture, and whether its tail family indices are vertex indices
FIXTURES = [(fountain, True), (leapfrog, False), (blocks2, True)]


def _shift(x, m: int):
    """x with every vertex index moved by m."""
    if isinstance(x, Vertex):
        return Vertex(x.block, x.idx + m)
    if isinstance(x, Arc):
        return Arc(_shift(x.p, m), _shift(x.q, m))
    if isinstance(x, (tuple, list, frozenset, set)):
        return type(x)(_shift(y, m) for y in x)
    return x


def _shift_covector(c, m: int, index_moves: bool):
    s = m if index_moves else 0
    return ({_shift(a, m): v for a, v in c.explicit.items()},
            {(tr.gap, tr.sub, None if tr.lo is None else tr.lo + s,
              None if tr.hi is None else tr.hi + s, tr.coeff)
             for tr in c.tail_terms})


@pytest.mark.parametrize("build,index_moves", FIXTURES)
def test_answers_are_the_m0_answers_shifted(build, index_moves):
    t0 = build(0)
    z = t0.z
    acyclic0 = is_acyclic(t0.dual_quiver(reference_nodes(t0)))
    pairs0 = maximal_pairs(t0)
    verts = [Vertex(b, i) for b in range(z.k) for i in range(-5, 6)]
    diags = [Arc(p, q) for i, p in enumerate(verts) for q in verts[i + 1:]
             if z.is_diagonal(Arc(p, q))][::3]
    dims0 = [_shift_covector(dimension_vector(t0, a), 0, False)
             for a in diags]
    for m in OFFSETS:
        t = build(m)
        assert validate(t).ok
        assert is_acyclic(t.dual_quiver(reference_nodes(t))) == acyclic0
        assert maximal_pairs(t) == {_shift(p, m) for p in pairs0}
        for a, want in zip(diags, dims0):
            got = _shift_covector(dimension_vector(t, _shift(a, m)), -m,
                                  index_moves)
            assert got == want


def _degenerate_fountain(m):
    return Triangulation.make(ZModel.blocks(1), set(),
                              {0: Fountain(Vertex(0, m), m, m)})


def _fountain_gap(m):
    return Triangulation.make(ZModel.blocks(1), set(),
                              {0: Fountain(Vertex(0, m), m + 3, m - 2)})


def _core_crosses_tail(m):
    z = ZModel.blocks(1)
    return Triangulation.make(z, {z.arc(m - 5, m)},
                              {0: Fountain(Vertex(0, m + 3), m + 6, m)})


def _tails_cross(m):
    return Triangulation.make(
        ZModel.blocks(2), {Arc(Vertex(0, m), Vertex(1, m))},
        {0: Fountain(Vertex(0, m), m + 2, m + 3),
         1: Fountain(Vertex(1, m), m + 2, m - 1)})


def _shift_witness(w, m: int):
    """A witness with vertex indices moved by m; the fixtures are
    fountains, so a tail reference (gap, sub, i) moves too."""
    if isinstance(w, tuple) and len(w) == 3 and isinstance(w[1], str):
        return (w[0], w[1], w[2] + m)
    if isinstance(w, tuple):
        return tuple(_shift_witness(x, m) for x in w)
    return _shift(w, m)


@pytest.mark.parametrize("build", [_degenerate_fountain, _fountain_gap,
                                   _core_crosses_tail, _tails_cross])
def test_invalid_fixture_rejected_with_translated_witness(build):
    rep0 = validate(build(0))
    assert not rep0.ok
    rep = validate(build(1000))
    assert (rep.ok, rep.reason) == (False, rep0.reason)
    assert rep.witness == _shift_witness(rep0.witness, 1000)


def _count_calls(monkeypatch, *targets) -> dict[str, int]:
    """Counts the calls of each (class, method name) in targets."""
    calls = {}
    for cls, name in targets:
        calls[name] = 0

        def counted(self, *args, inner=getattr(cls, name), name=name):
            calls[name] += 1
            return inner(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_validate_work_does_not_grow_with_offset(monkeypatch):
    """The engine queries and the breakpoint runs of one ``validate``
    do not grow with the offset m."""
    calls = _count_calls(monkeypatch, (Triangulation, "_extremal_connected"),
                         (_SubFamily, "runs"))
    for build, _ in FIXTURES:
        per_m = []
        for m in (0, 1000, 10 ** 6):
            calls.update(dict.fromkeys(calls, 0))
            assert validate(build(m)).ok
            per_m.append(dict(calls))
        assert all(c["_extremal_connected"] <= per_m[0]["_extremal_connected"]
                   for c in per_m), build.__name__
        assert all(c["runs"] == per_m[0]["runs"] for c in per_m), per_m


def test_dimension_vectors_call_no_runs(monkeypatch):
    """Crossing runs are solved in closed form: no dimension vector on
    a fresh Blocks triangulation evaluates breakpoint runs."""
    calls = _count_calls(monkeypatch, (_SubFamily, "runs"))
    for build, _ in FIXTURES:
        for m in (0, 10 ** 6):
            t0 = build(m)
            t = Triangulation(t0.z, t0.core, t0.tails)
            pts = [Vertex(b, m + i) for b in range(t.z.k)
                   for i in range(-5, 6)] + t.z.limits()
            for i, p in enumerate(pts):
                for q in pts[i + 1:]:
                    dimension_vector(t, Arc(p, q))
    assert calls == {"runs": 0}


def test_one_point_queries_run_only_a_constant_endpoint_at_the_point(
        monkeypatch):
    """A one-point query evaluates breakpoint runs only on a subfamily
    whose constant endpoint is the point: elsewhere one index decides."""
    seen = []
    inner = _SubFamily.runs

    def runs(self, bounds, pred):
        seen.append((self, bounds))
        return inner(self, bounds, pred)

    monkeypatch.setattr(_SubFamily, "runs", runs)
    for build, _ in FIXTURES:
        t = build(1000)
        for x in (Vertex(b, 1000 + i) for b in range(t.z.k)
                  for i in range(-6, 7)):
            for lo, hi in ((3, 9), (-9, -3), (3, -3)):
                t.sup_connected(x, Vertex(x.block, x.idx + lo),
                                Vertex(x.block, x.idx + hi))
    assert seen
    for sf, (_, _, x, y) in seen:
        assert x == y and x in [Vertex(b, o) for b, o, s in (sf.e1, sf.e2)
                                if s == 0]


def test_octagon_round_trips_call_no_runs(monkeypatch):
    """A finite polygon has no tail, so no (T, v) realization round
    trip on the octagon evaluates breakpoint runs."""
    calls = _count_calls(monkeypatch, (_SubFamily, "runs"))
    z = ZModel.finite(8)
    for t in enumerate_triangulations(z):
        for v in (a for a in (z.arc(i, j) for i in range(8)
                              for j in range(i + 2, 8)) if z.is_diagonal(a)):
            if v in t.core:
                continue
            dimension_vector(t, v)
            u_tri, u = realize_dimension_vector(t, v)
            cvector_full(CVectorQuery(t, u_tri, u))
    assert calls == {"runs": 0}


def test_octagon_round_trips_read_the_quadruple_off_dim(monkeypatch):
    """No octagon realization builds a bridge quadruple: it reads the
    crossing ends off dim(v).  The whole round trip stays within the
    extremal queries it makes since then (39,488 over the 1,980 round
    trips; 47,408 with the bridge)."""
    calls = _count_calls(monkeypatch,
                         (Triangulation, "_extremal_connected"),
                         (Triangulation, "bridge_quadruple"))
    z = ZModel.finite(8)
    in_realize = 0
    for t in enumerate_triangulations(z):
        for v in (a for a in (z.arc(i, j) for i in range(8)
                              for j in range(i + 2, 8)) if z.is_diagonal(a)):
            if v in t.core:
                continue
            dimension_vector(t, v)
            before = calls["bridge_quadruple"]
            u_tri, u = realize_dimension_vector(t, v)
            in_realize += calls["bridge_quadruple"] - before
            cvector_full(CVectorQuery(t, u_tri, u))
    assert in_realize == 0
    assert calls["bridge_quadruple"] == 1980  # one in each image_arc
    assert calls["_extremal_connected"] <= 39488, calls


def test_structure_check_names_the_degenerate_member():
    rep = validate(_degenerate_fountain(0))
    assert (rep.ok, rep.reason, rep.witness) == (
        False, "non-diagonal tail member", (0, "right", 0))
    assert validate(fountain(1000)).ok


@pytest.mark.parametrize("tail, witness", [
    (Fountain(Vertex(0, 10), 0, -5), (0, "right", 9)),
    (Leapfrog(0, 20), (0, "a", 10)),
])
def test_degenerate_member_inside_the_range_is_reported(tail, witness):
    """Members that are not diagonals away from both range ends are
    found by the runs over the whole range, not only near its end."""
    t = Triangulation.make(ZModel.blocks(1), set(), {0: tail})
    rep = validate(t)
    assert (rep.ok, rep.reason, rep.witness) == (
        False, "non-diagonal tail member", witness)


# -- member keys by arithmetic ------------------------------------------------


@pytest.mark.parametrize("m", OFFSETS)
@pytest.mark.parametrize("build", [fountain, leapfrog, blocks2])
def test_member_key_is_the_model_key(build, m):
    """On a window reaching 3m + 40 past each finite end (through vertex
    0 and the negative half of block 0), the key computed from the
    index is the key of the vertex."""
    t = build(m)
    z = t.z
    for sf in t.subfamilies:
        end = sf.imin if sf.imin is not None else sf.imax
        for i in range(end - 3 * m - 40, end + 3 * m + 41):
            for w in (0, 1):
                assert sf.key(z, w, i) == z.key(sf.vertex(w, i))


@pytest.mark.parametrize("z, sf, which, idx", [
    (ZModel.blocks(2), _SubFamily(0, "right", 0, None, (0, 5, 0), (2, 0, 1)),
     1, (-3, 0, 4)),
    (ZModel.blocks(1), _SubFamily(0, "left", None, 0, (-1, 0, 1), (0, 0, 0)),
     0, (-2, 0)),
    (ZModel.finite(6), _SubFamily(0, "right", 0, None, (0, 0, 0), (0, 2, 1)),
     1, (-3, 4, 9)),
])
def test_member_key_outside_the_model_raises_the_model_error(z, sf, which,
                                                             idx):
    for i in idx:
        with pytest.raises(ModelError) as want:
            z.key(sf.vertex(which, i))
        with pytest.raises(ModelError, match=re.escape(str(want.value))):
            sf.key(z, which, i)
    assert sf.key(z, 1 - which, 1) == z.key(sf.vertex(1 - which, 1))
