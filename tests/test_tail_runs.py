"""The closed-form tail calculus, checked against the sampled
breakpoint window it replaced and against brute force, and the offset
invariance it buys: every answer at vertex offset m is the m = 0 answer
shifted, for the same work."""

from __future__ import annotations

import bisect
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from infgon import triangulation
from infgon.cvector import (CVectorQuery, cvector_full, dimension_vector,
                            realize_dimension_vector)
from infgon.decomposition import OrderedCrossingSet, maximal_pairs
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  _and, _apart, _clip, _covers, _crossing_runs,
                                  _family_crossings, _SubFamily,
                                  _subfamilies_of_tail, _within,
                                  enumerate_triangulations, validate)
from infgon.zmodel import (Arc, Limit, ModelError, Vertex, ZModel,
                           keys_cross, keys_in_closed)

from test_validate import is_acyclic, reference_nodes

OFFSETS = (0, 100, 1000)
FAR = (0, 10 ** 6, 10 ** 12)


# -- the sampled reference: the breakpoint window ----------------------------


def _breakpoints(sf, bounds) -> set[int]:
    """The indices where the cyclic order of member(i)'s endpoints,
    among themselves and against the bounds, can change: each finite
    end of the range, each index where a moving endpoint meets a bound
    vertex of its block, and the index nearest below the meeting of two
    endpoints of one block."""
    pts = {bd for bd in (sf.imin, sf.imax) if bd is not None}
    for b, o, s in (sf.e1, sf.e2):
        if s:
            pts.update((p.idx - o) * s for p in bounds
                       if isinstance(p, Vertex) and p.block == b)
    (b1, o1, s1), (b2, o2, s2) = sf.e1, sf.e2
    if b1 == b2 and s1 != s2:
        pts.add((o2 - o1) // (s1 - s2))
    return pts


def _sampled_runs(sf, bounds, pred):
    """The maximal runs (lo, hi) of indices in sf's range where pred
    holds, in increasing order (None unbounded), for a pred that reads
    member(i) only through the cyclic order of its endpoints among
    themselves and against the closure points in ``bounds``.

    Why the window and one sentinel are exact.  An endpoint
    (b, o + s*i) with s != 0 moves one vertex per index inside block b.
    Against a bound vertex (b, x) its order (before, adjacent, equal,
    adjacent, after) changes only at c = (x - o)*s and c +- 1.  Two
    endpoints of one block with slopes s1 != s2 are equal or adjacent
    only within one index of c = (o2 - o1) // (s1 - s2).  So pred is
    constant on each stretch of the range lying at least 2 from every
    breakpoint, the range ends being breakpoints.  The window holds
    every index within 2 of a breakpoint, and the sentinel, one index
    beyond, samples an unbounded side; a run reaching it is unbounded.
    """
    low, high = sf.imin is None, sf.imax is None
    pts = sorted({c + d for c in _breakpoints(sf, bounds)
                  for d in (-2, -1, 0, 1, 2)})
    pts = pts[0 if low else bisect.bisect_left(pts, sf.imin):
              None if high else bisect.bisect_right(pts, sf.imax)]
    if low:
        pts.insert(0, pts[0] - 1)
    if high:
        pts.append(pts[-1] + 1)
    out = []
    start = prev = None
    prev_val = False
    for i in pts:
        val = pred(i)
        if prev is not None and i > prev + 1 and val != prev_val:
            raise AssertionError("breakpoint escaped the window")
        if val and not prev_val:
            start = i
        elif prev_val and not val:
            out.append((start, prev))
        prev, prev_val = i, val
    if prev_val:
        out.append((start, None if high else prev))
    if low and out and out[0][0] == pts[0]:
        out[0] = (None, out[0][1])
    return out


# -- the sampled window against brute force ----------------------------------


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
    end = sf.near_end(sf.imin, sf.imax)
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


def _not_diagonal(z, sf):
    """validate's sampled test: member(i) is not a diagonal."""
    def pred(i):
        u, w = sf.vertex(0, i), sf.vertex(1, i)
        return u == w or not z.is_diagonal(Arc(u, w))
    return pred


def _predicates(z, sf, bounds):
    a, b, c, d = bounds

    def in_intervals(i):
        u, w = sf.vertex(0, i), sf.vertex(1, i)
        key = z.key
        return (u != w and keys_in_closed(key(a), key(u), key(b))
                and keys_in_closed(key(c), key(w), key(d)))

    return [((a, b, c, d), in_intervals), ((), _not_diagonal(z, sf))]


@pytest.mark.parametrize("m", OFFSETS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_runs_match_brute_force(m, data):
    z, sf, bounds = data.draw(family_and_bounds(m))
    reach = _reach(sf, bounds, m)
    for bnd, pred in _predicates(z, sf, bounds):
        _assert_runs_exact(sf, _sampled_runs(sf, bnd, pred), pred, reach)


def test_runs_window_does_not_depend_on_vertex_zero():
    """A family far from vertex 0 evaluates the same number of indices
    as its translate through vertex 0."""
    z = ZModel.blocks(1)
    counts = []
    for m in (0, 1000):
        seen = []
        for sf in _subfamilies_of_tail(z, 0, Fountain(Vertex(0, m), m + 2,
                                                      m - 2)):
            _sampled_runs(sf, (Vertex(0, m - 1), Vertex(0, m + 5)),
                          lambda i: seen.append(i) or False)
        counts.append(len(seen))
    assert counts[0] == counts[1]


# -- the closed forms against the sampled window -----------------------------


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


@pytest.mark.parametrize("m", OFFSETS + FAR[1:])
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
    sampled = _sampled_runs(sf, (arc.p, arc.q), lambda i: keys_cross(
        ka, kb, z.key(sf.vertex(0, i)), z.key(sf.vertex(1, i))))
    got = _crossing_runs(z, sf, arc)
    assert got == sampled

    def crosses(i):
        u, w = sf.vertex(0, i), sf.vertex(1, i)
        return (u != w and z.is_diagonal(Arc(u, w))
                and z.crosses(arc, Arc(u, w)))
    _assert_near_runs_exact(sf, got, crosses, arc.endpoints())


def _assert_near_runs_exact(sf, runs, pred, bounds=()):
    """runs are pred's runs by brute force over the indices reaching
    4(S + 1) past the family's finite end, S the spread of the vertex
    indices of its end member and of the bounds, and an unbounded run
    holds one index beyond."""
    end = sf.near_end(sf.imin, sf.imax)
    idx = [sf.vertex(0, end).idx, sf.vertex(1, end).idx]
    idx += [p.idx for p in bounds if isinstance(p, Vertex)]
    reach = 4 * (max(idx) - min(idx) + 1)
    lo_r = end - reach if sf.imin is None else sf.imin
    hi_r = end + reach if sf.imax is None else sf.imax
    truth = {i for i in range(lo_r, hi_r + 1) if pred(i)}
    assert truth == {i for lo, hi in runs for i in range(
        lo_r if lo is None else lo, (hi_r if hi is None else hi) + 1)}
    for lo, hi in runs:
        assert lo is not None or pred(lo_r - 1)
        assert hi is not None or pred(hi_r + 1)


@pytest.mark.parametrize("m", FAR)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_p_first_is_constant_along_a_crossing_run(m, data):
    """``_RunInfo`` reads the endpoint inside (e, f) at one index of a
    crossing run: the sampled runs of "endpoint 0 lies strictly inside
    (e, f)" over the run are the whole run or nothing."""
    z, sf, arc = data.draw(family_and_arc(m))
    e, f = arc.p, arc.q
    for lo, hi in _crossing_runs(z, sf, arc):
        run = _SubFamily(sf.gap, sf.sub, lo, hi, sf.e1, sf.e2)
        sampled = _sampled_runs(run, (e, f), lambda i: z.strictly_between(
            e, sf.vertex(0, i), f))
        inside = z.strictly_between(e, sf.vertex(0, run.near_end(lo, hi)), f)
        assert sampled == ([(lo, hi)] if inside else [])


@pytest.mark.parametrize("m", FAR)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apart_is_the_sampled_distance_test(m, data):
    """``_apart`` at -1..1 is validate's sampled non-diagonal check, and
    at every range within -2..2 (``ears`` asks +-2) the brute-force test
    on the endpoints' offset difference."""
    z, sf, _ = data.draw(family_and_arc(m))
    assert _apart(sf, -1, 1) == _sampled_runs(sf, (), _not_diagonal(z, sf))
    lo = data.draw(st.integers(-2, 2))
    hi = data.draw(st.integers(lo, 2))
    (b1, o1, s1), (b2, o2, s2) = sf.e1, sf.e2
    _assert_near_runs_exact(sf, _apart(sf, lo, hi), lambda i: (
        b1 == b2 and lo <= (o1 + s1 * i) - (o2 + s2 * i) <= hi))


@pytest.mark.parametrize("m", FAR)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_interval_path_is_the_sampled_joins(m, data):
    """``_extremal_connected``'s interval path: endpoint wa in the closed
    interval A and the other in B, two disjoint closed intervals (A's
    ends vertices, B one vertex or limit point or longer), read off
    ``_within``, is the sampled test that also asked them apart."""
    z, sf, _ = data.draw(family_and_arc(m))
    pts = sorted(set(data.draw(st.lists(points(z.k, m), min_size=2,
                                        max_size=4))), key=z.key)
    assume(len(pts) >= 2)
    rot = data.draw(st.integers(0, len(pts) - 1))
    pts = pts[rot:] + pts[:rot]
    cut = data.draw(st.integers(1, len(pts) - 1))
    a, b = pts[:cut], pts[cut:]
    a_lo, a_hi, b_lo, b_hi = a[0], a[-1], b[0], b[-1]
    assume(isinstance(a_lo, Vertex) and isinstance(a_hi, Vertex))
    k_alo, k_ahi, k_blo, k_bhi = map(z.key, (a_lo, a_hi, b_lo, b_hi))
    for wa in (0, 1):
        def joins(i):
            ka, kb = z.key(sf.vertex(wa, i)), z.key(sf.vertex(1 - wa, i))
            return (keys_in_closed(k_alo, ka, k_ahi) and ka != kb
                    and keys_in_closed(k_blo, kb, k_bhi))
        assert _clip(sf, _and(
            _within(z, sf, wa, a_lo, a_hi, k_alo, k_ahi),
            _within(z, sf, 1 - wa, b_lo, b_hi, k_blo, k_bhi))
        ) == _sampled_runs(sf, (a_lo, a_hi, b_lo, b_hi), joins)


def _sampled_side_runs(y, r, x, want):
    """Y's side sweep as it was sampled: r's members other than x below
    (want = -1) or above x, compared on order keys, raising on a
    member that crosses x."""
    z, sf = y.z, r.sf
    kx = y._okey(x)

    def on_side(i):
        km = y._order_keys(z.key(sf.vertex(0, i)), z.key(sf.vertex(1, i)))
        return km[0] != kx[0] and y._cmp_keys(
            km, kx, lambda: (sf.member(i), x)) == want
    return _sampled_runs(sf, (x.p, x.q, y.e, y.f), on_side)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ModelError as exc:
        return ("raises", str(exc))


@st.composite
def tail_triangulation_and_pair(draw, m):
    """Blocks(k), k = 1..3, with a random tail at every gap and a few
    random core diagonals near offset m (valid or not), and a pair of
    closure points."""
    k = draw(st.integers(1, 3))
    z = ZModel.blocks(k)
    tls = {g: draw(tails(k, m)) for g in range(k)}
    verts = st.builds(lambda b, i: Vertex(b, m + i), st.integers(0, k - 1),
                      st.integers(-7, 7))
    core = [Arc(p, q) for p, q in draw(st.lists(st.tuples(verts, verts),
                                                max_size=3))
            if p != q and z.is_diagonal(Arc(p, q))]
    e = draw(points(k, m))
    f = draw(points(k, m).filter(lambda q: q != e))
    return Triangulation(z, frozenset(core), tuple(sorted(tls.items()))), e, f


@pytest.mark.parametrize("m", FAR)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_side_runs_are_the_sampled_side_sweeps(m, data):
    """Y's side sweeps read off ``_sides`` give the sampled lists, and
    raise the same message where a member crosses x, for every tail run
    of Y and every x among the core crossers and the first members of
    each run, on triangulations valid or not.  The message names the
    least crossing member; where the crossers are unbounded below, the
    sample named one at its sentinel and the closed form names the top
    of that run, so only the failure is compared there."""
    t, e, f = data.draw(tail_triangulation_and_pair(m))
    try:
        y = OrderedCrossingSet(t, e, f)
    except ModelError:
        return  # Y is empty, or its runs already raise
    xs = [a for a in t.core if y.z.crosses(y.pair, a)]
    xs += [r.sf.member(r.closed + j * r.sf.step)
           for r in y._runs for j in range(3)]
    for r in y._runs:
        for x in xs:
            kx = y._okey(x)
            crossers = _sampled_runs(r.sf, (x.p, x.q), lambda i: keys_cross(
                kx[1], kx[2], y.z.key(r.sf.vertex(0, i)),
                y.z.key(r.sf.vertex(1, i))))
            for want in (-1, 1):
                y._sides.clear()
                got = _outcome(y._side_runs, r, x, want)
                ref = _outcome(_sampled_side_runs, y, r, x, want)
                if crossers and crossers[0][0] is None:
                    assert got[0] == ref[0] == "raises"
                    assert got[1].endswith("(crossing pair)")
                else:
                    assert got == ref


@st.composite
def two_families(draw, m):
    """Subfamilies of two tails at different gaps of Blocks(k), k = 2
    or 3, at offset m, both free of non-diagonal members."""
    k = draw(st.integers(2, 3))
    z = ZModel.blocks(k)
    ga, gb = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                           unique=True))
    fa = draw(st.sampled_from(_subfamilies_of_tail(z, ga, draw(tails(k, m)))))
    fb = draw(st.sampled_from(_subfamilies_of_tail(z, gb, draw(tails(k, m)))))
    assume(not any(_sampled_runs(sf, (), _not_diagonal(z, sf))
                   for sf in (fa, fb)))
    return z, fa, fb


def _end(sf) -> int:
    return sf.near_end(sf.imin, sf.imax)


@pytest.mark.parametrize("m", FAR)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_family_crossings_are_the_sampled_sweep_and_brute_force(m, data):
    """``_family_crossings`` equals the j-sweep ``validate`` ran before
    (the breakpoint window over j at fa's anchors), and brute force over
    an (i, j) window reaching 4(S + 1) past every data index, S their
    spread; i runs three times as far, as fa's bounds move with j."""
    z, fa, fb = data.draw(two_families(m))
    got = _family_crossings(z, fa, fb)
    fixed = [Vertex(b, o) for sf in (fa, fb)
             for b, o, s in (sf.e1, sf.e2) if s == 0]
    anchors = [fa.vertex(w, i) for i in _breakpoints(fa, fixed)
               if _covers(fa.imin, fa.imax, i) for w in (0, 1)]
    assert got == _sampled_runs(fb, anchors + fixed, lambda j: bool(
        _crossing_runs(z, fa, fb.member(j))))

    idx = [v.idx for sf in (fa, fb) for v in sf.member(_end(sf)).endpoints()]
    reach = 4 * (max(idx) - min(idx) + 1)
    ka = [(z.key(fa.vertex(0, i)), z.key(fa.vertex(1, i)))
          for i in range(_end(fa) - 3 * reach, _end(fa) + 3 * reach + 1)
          if _covers(fa.imin, fa.imax, i)]

    def crossed(j):
        kp, kq = z.key(fb.vertex(0, j)), z.key(fb.vertex(1, j))
        return any(keys_cross(kp, kq, *k) for k in ka)
    js = [j for j in range(_end(fb) - reach, _end(fb) + reach + 1)
          if _covers(fb.imin, fb.imax, j)]
    assert {j for j in js if crossed(j)} == {
        j for j in js for lo, hi in got
        if (lo is None or lo <= j) and (hi is None or j <= hi)}
    for lo, hi in got:  # an unbounded run holds far out
        for j in ([_end(fb) - 10 * reach] if lo is None else []) + (
                [_end(fb) + 10 * reach] if hi is None else []):
            assert _crossing_runs(z, fa, fb.member(j))


@pytest.mark.parametrize("m", FAR)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_family_crossings_of_a_vertex_arc_are_its_crossing_runs(m, data):
    """A vertex arc is a one-member family with constant endpoints: the
    two solvers agree on it."""
    z, sf, arc = data.draw(family_and_arc(m))
    assume(isinstance(arc.p, Vertex) and isinstance(arc.q, Vertex))
    one = _SubFamily(0, "arc", 0, 0, (*arc.p, 0), (*arc.q, 0))
    assert _family_crossings(z, one, sf) == _crossing_runs(z, sf, arc)


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
    """Counts the calls of each (class or module, function name) in
    targets."""
    calls = {}
    for owner, name in targets:
        calls[name] = 0

        def counted(*args, inner=getattr(owner, name), name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


CLOSED_FORMS = ("_apart", "_crossing_runs", "_family_crossings")


def test_validate_work_does_not_grow_with_offset(monkeypatch):
    """The engine queries and the closed-form tail solvers of one
    ``validate`` do not grow with the offset m."""
    calls = _count_calls(monkeypatch, (Triangulation, "_extremal_connected"),
                         *((triangulation, name) for name in CLOSED_FORMS))
    for build, _ in FIXTURES:
        per_m = []
        for m in (0, 1000, 10 ** 6):
            calls.update(dict.fromkeys(calls, 0))
            assert validate(build(m)).ok
            per_m.append(dict(calls))
        assert all(c["_extremal_connected"] <= per_m[0]["_extremal_connected"]
                   for c in per_m), build.__name__
        assert all(c[name] == per_m[0][name] for c in per_m
                   for name in CLOSED_FORMS), per_m


def test_subfamily_defines_no_sampled_runs():
    """Every tail predicate is solved in closed form: the sampled
    breakpoint window is gone from the library."""
    assert not hasattr(_SubFamily, "runs")
    assert not hasattr(_SubFamily, "breakpoints")


def _watch_sampled_runs(monkeypatch) -> dict[str, int]:
    """Gives ``_SubFamily`` a ``runs`` and a ``breakpoints`` that only
    count their calls, so any path that still reaches for the sampled
    window is seen."""
    calls = {"runs": 0, "breakpoints": 0}
    for name in calls:
        def counted(*args, name=name, **kwargs):
            calls[name] += 1
            raise AssertionError(f"_SubFamily.{name} called")

        monkeypatch.setattr(_SubFamily, name, counted, raising=False)
    return calls


def test_dimension_vectors_call_no_runs(monkeypatch):
    """Crossing runs are solved in closed form: no dimension vector on
    a fresh Blocks triangulation evaluates breakpoint runs."""
    calls = _watch_sampled_runs(monkeypatch)
    for build, _ in FIXTURES:
        for m in (0, 10 ** 6):
            t0 = build(m)
            t = Triangulation(t0.z, t0.core, t0.tails)
            pts = [Vertex(b, m + i) for b in range(t.z.k)
                   for i in range(-5, 6)] + t.z.limits()
            for i, p in enumerate(pts):
                for q in pts[i + 1:]:
                    dimension_vector(t, Arc(p, q))
    assert calls == {"runs": 0, "breakpoints": 0}


def test_octagon_round_trips_call_no_runs(monkeypatch):
    """A finite polygon has no tail, so no (T, v) realization round
    trip on the octagon evaluates breakpoint runs."""
    calls = _watch_sampled_runs(monkeypatch)
    z = ZModel.finite(8)
    for t in enumerate_triangulations(z):
        for v in (a for a in (z.arc(i, j) for i in range(8)
                              for j in range(i + 2, 8)) if z.is_diagonal(a)):
            if v in t.core:
                continue
            dimension_vector(t, v)
            u_tri, u = realize_dimension_vector(t, v)
            cvector_full(CVectorQuery(t, u_tri, u))
    assert calls == {"runs": 0, "breakpoints": 0}


def test_one_point_queries_run_only_a_constant_endpoint_at_the_point(
        monkeypatch):
    """A one-point query takes the interval path (``_within``) only on a
    subfamily whose constant endpoint is the point: elsewhere one index
    decides."""
    seen = []
    inner = triangulation._within

    def within(z, sf, *args):
        seen.append((sf, x))
        return inner(z, sf, *args)

    monkeypatch.setattr(triangulation, "_within", within)
    for build, _ in FIXTURES:
        t = build(1000)
        for x in (Vertex(b, 1000 + i) for b in range(t.z.k)
                  for i in range(-6, 7)):
            for lo, hi in ((3, 9), (-9, -3), (3, -3)):
                t.sup_connected(x, Vertex(x.block, x.idx + lo),
                                Vertex(x.block, x.idx + hi))
    assert seen
    for sf, x in seen:
        assert x in [Vertex(b, o) for b, o, s in (sf.e1, sf.e2) if s == 0]


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


# -- a tail vertex outside the model ------------------------------------------


@pytest.mark.parametrize("z, tails, message", [
    (ZModel.blocks(2), {0: Fountain(Vertex(5, 0), 2, -2), 1: Leapfrog(0, 0)},
     "V(5,0) is not a vertex of Blocks(2)"),
    (ZModel.blocks(1), {0: Fountain(Vertex(-1, 0), 2, -2)},
     "V(-1,0) is not a vertex of Blocks(1)"),
])
def test_validate_raises_the_model_error_for_a_tail_base_outside(z, tails,
                                                                message):
    """A fountain base in no block of the model raises z.key's
    ModelError, naming the vertex, once the tails cover every gap."""
    with pytest.raises(ModelError, match=re.escape(message)) as got:
        validate(Triangulation.make(z, set(), tails))
    assert str(got.value) == message
