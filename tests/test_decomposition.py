"""Ordered crossing sets, order types, roots, maximal pairs."""

from __future__ import annotations

import functools
import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from infgon import cvector, decomposition, triangulation
from infgon.cvector import dimension_vector, support_subset
from infgon.decomposition import (NEG_INFINITY, MaximalityReport,
                                  OrderDescriptor, OrderedCrossingSet, Root,
                                  YExt, _interval_root, add_vectors,
                                  crossing_order, decompose_row, delta_plus,
                                  in_X, maximal_pairs, psi, root_of_arc,
                                  root_system_label,
                                  unique_maximal_iff_acyclic_report)
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  UnattainedError, _crossing_runs,
                                  enumerate_triangulations, validate)
from infgon.zmodel import Arc, Limit, ModelError, Vertex, ZModel, keys_cross

from test_cvector import _points, core_and_tail, two_tails
from test_tail_runs import OFFSETS, blocks2, fountain, leapfrog, points, tails
from test_validate import (_filled, _flipped, _shift, is_acyclic,
                           reference_nodes)


def pentagon_fan():
    z = ZModel.finite(5)
    return z, Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})


def hexagon_cyclic():
    z = ZModel.finite(6)
    return z, Triangulation.make(z, {z.arc(0, 2), z.arc(2, 4), z.arc(4, 0)})


def fountain_fixture():
    z = ZModel.blocks(1)
    return z, Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})


def leapfrog_fixture():
    z = ZModel.blocks(1)
    return z, Triangulation.make(z, set(), {0: Leapfrog(1, -1)})


# -- crossing order ---------------------------------------------------------


def test_crossing_order_pentagon():
    z, t = pentagon_fan()
    y = crossing_order(t, z.v(1), z.v(4))
    assert y.members == (z.arc(0, 2), z.arc(0, 3))
    assert y.descriptor() == OrderDescriptor(finite_size=2)
    y1 = crossing_order(t, z.v(1), z.v(3))
    assert y1.members == (z.arc(0, 2),)
    assert y1.descriptor() == OrderDescriptor(finite_size=1)


def test_crossing_order_empty_rejected():
    z, t = pentagon_fan()
    with pytest.raises(ModelError):
        crossing_order(t, z.v(3), z.v(4))


def test_crossing_order_fountain():
    z, t = fountain_fixture()
    y = crossing_order(t, z.v(1), z.v(-1))
    d = y.descriptor()
    assert not d.is_finite
    assert d.head and d.tail and d.z_blocks == 0
    assert str(d) == "omega + omega*"
    assert y.first(3) == [z.arc(0, 2), z.arc(0, 3), z.arc(0, 4)]
    assert y.last(3) == [z.arc(0, -4), z.arc(0, -3), z.arc(0, -2)]
    assert y.least() == z.arc(0, 2)
    assert y.greatest() == z.arc(0, -2)
    assert y.pred_in(z.arc(0, 2)) is None
    assert y.succ_in(z.arc(0, -2)) is None
    assert y.succ_in(z.arc(0, 5)) == z.arc(0, 6)
    assert y.pred_in(z.arc(0, -2)) == z.arc(0, -3)


def test_crossing_order_leapfrog():
    z, t = leapfrog_fixture()
    y = crossing_order(t, Vertex(0, 0), Limit(0))
    d = y.descriptor()
    assert d.head and not d.tail and d.z_blocks == 0
    assert str(d) == "omega"
    assert y.first(4) == [z.arc(1, -1), z.arc(-1, 2),
                          z.arc(2, -2), z.arc(-2, 3)]
    assert not y.has_greatest
    assert y.greatest() is None
    assert y.succ_in(z.arc(2, -2)) == z.arc(-2, 3)
    assert y.pred_in(z.arc(2, -2)) == z.arc(-1, 2)


def test_crossing_order_matches_comparator_exhaustive():
    z = ZModel.finite(7)
    rng = random.Random(11)
    tris = enumerate_triangulations(z)
    for _ in range(60):
        t = rng.choice(tris)
        e, f = rng.sample(range(7), 2)
        dv = dimension_vector(t, Arc(z.v(e), z.v(f)))
        if dv.is_zero():
            continue
        y = crossing_order(t, z.v(e), z.v(f))
        ms = y.members
        assert len(ms) == len([d for d in t.core
                               if z.crosses(Arc(z.v(e), z.v(f)), d)])
        for a, b in zip(ms, ms[1:]):
            assert y.less(a, b) and not y.less(b, a)


# -- Y_ext and the isomorphism ---------------------------------------------


def test_y_ext_finite():
    z, t = pentagon_fan()
    ye = YExt(crossing_order(t, z.v(1), z.v(4)))
    assert ye.has_neg_inf
    assert len(ye) == 3
    assert ye.members == (NEG_INFINITY, z.arc(0, 2), z.arc(0, 3))


def test_y_ext_iso_fountain():
    z, t = fountain_fixture()
    y = crossing_order(t, z.v(1), z.v(-1))
    ye = YExt(y)
    assert ye.has_neg_inf
    assert ye.iso_to_y(NEG_INFINITY) == z.arc(0, 2)
    assert ye.iso_to_y(z.arc(0, 2)) == z.arc(0, 3)
    assert ye.iso_to_y(z.arc(0, 7)) == z.arc(0, 8)
    # the omega* side is untouched
    assert ye.iso_to_y(z.arc(0, -2)) == z.arc(0, -2)
    # order-preserving and injective on a window
    els = ye.first(5) + ye.last(5)
    imgs = [ye.iso_to_y(el) for el in els]
    assert len(set(imgs)) == len(imgs)


def test_y_ext_no_least_unchanged():
    z, t = leapfrog_fixture()
    # reversed orientation: from the limit point, Y has no least
    y = crossing_order(t, Limit(0), Vertex(0, 0))
    assert not y.has_least
    ye = YExt(y)
    assert not ye.has_neg_inf
    d = y.descriptor()
    assert d.tail and not d.head


# -- psi and roots ----------------------------------------------------------


def test_psi_pentagon_sl3():
    z, t = pentagon_fan()
    y = crossing_order(t, z.v(1), z.v(4))
    a, b = z.arc(0, 2), z.arc(0, 3)
    roots = {psi(y, a, a), psi(y, a, b), psi(y, b, b)}
    assert roots == {Root(a, NEG_INFINITY), Root(b, NEG_INFINITY),
                     Root(b, a)}
    assert len(roots) == 3
    # additivity: psi([a,a]) + psi([b,b]) = psi([a,b])
    assert add_vectors(psi(y, a, a).vector(), psi(y, b, b).vector()) \
        == psi(y, a, b).vector()


def test_psi_fountain_interval():
    z, t = fountain_fixture()
    y = crossing_order(t, z.v(1), z.v(-1))
    r = psi(y, z.arc(0, 3), z.arc(0, -3))
    assert r == Root(z.arc(0, -3), z.arc(0, 2))


def test_psi_additivity_fountain_random():
    z, t = fountain_fixture()
    y = crossing_order(t, z.v(1), z.v(-1))
    window = y.first(10) + y.last(10)
    rng = random.Random(23)
    for _ in range(50):
        i, j, k = sorted(rng.sample(range(len(window)), 3))
        x, mid, end = window[i], window[j], window[k]
        lhs = add_vectors(psi(y, x, mid).vector(),
                          psi(y, y.succ_in(mid), end).vector())
        assert lhs == psi(y, x, end).vector()


def test_root_of_arc_pentagon():
    z, t = pentagon_fan()
    assert root_of_arc(t, z.v(1), z.v(4), z.arc(1, 3)) \
        == Root(z.arc(0, 2), NEG_INFINITY)
    # the full interval gives the highest-root analogue
    assert root_of_arc(t, z.v(1), z.v(4), z.arc(1, 4)) \
        == Root(z.arc(0, 3), NEG_INFINITY)


def test_root_of_arc_hexagon():
    z, t = hexagon_cyclic()
    assert root_of_arc(t, z.v(1), z.v(5), z.arc(1, 4)) \
        == Root(z.arc(0, 2), NEG_INFINITY)
    assert root_of_arc(t, z.v(1), z.v(5), z.arc(2, 5)) \
        == Root(z.arc(4, 0), z.arc(0, 2))


def test_root_of_arc_fountain():
    z, t = fountain_fixture()
    assert root_of_arc(t, z.v(1), z.v(-1), z.arc(2, -2)) \
        == Root(z.arc(0, -3), z.arc(0, 2))


def test_delta_plus_counts():
    z, t = pentagon_fan()
    ye = YExt(crossing_order(t, z.v(1), z.v(4)))
    assert len(delta_plus(ye)) == 3
    z7 = ZModel.finite(8)
    fan = Triangulation.make(z7, {z7.arc(0, j) for j in range(2, 7)})
    ye8 = YExt(crossing_order(fan, z7.v(1), z7.v(7)))
    n = len(ye8)
    assert len(delta_plus(ye8)) == n * (n - 1) // 2


def test_delta_plus_infinite_window():
    z, t = fountain_fixture()
    ye = YExt(crossing_order(t, z.v(1), z.v(-1)))
    roots = delta_plus(ye, window=3)
    assert len(roots) == 15  # C(6, 2) over -inf, 2 head, 3 tail elements
    assert len(set(roots)) == 15


# -- X_{e,f} ---------------------------------------------------------------


def test_in_x_hexagon():
    z, t = hexagon_cyclic()
    assert in_X(t, z.v(1), z.v(5), dimension_vector(t, z.arc(1, 4)))
    assert not in_X(t, z.v(1), z.v(5), dimension_vector(t, z.arc(3, 5)))
    # reflexivity
    assert in_X(t, z.v(1), z.v(5), dimension_vector(t, z.arc(1, 5)))
    with pytest.raises(ModelError):
        in_X(t, z.v(1), z.v(5), dimension_vector(t, z.arc(0, 2)))


def _nonzero_dims(z, t):
    out = {}
    for i, j in combinations(range(z.n), 2):
        a = z.arc(i, j)
        if not z.is_diagonal(a):
            continue
        dv = dimension_vector(t, a)
        if not dv.is_zero():
            out.setdefault(dv, a)
    return out


def test_x_size_and_bijection_finite():
    """On every triangulation of the n-gon, n = 5..9, each maximal
    X_{e,f} has m(m+1)/2 members for |Y| = m, and root_of_arc maps it
    one to one onto Delta^+(Y_ext), the positive roots of sl_(m+1)."""
    count = 0
    for n in range(5, 10):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            dims = _nonzero_dims(z, t)
            for pair in maximal_pairs(t):
                count += 1
                e, f = sorted(pair, key=z.key)
                y = crossing_order(t, e, f)
                x_members = [v for dv, v in dims.items()
                             if in_X(t, e, f, dv)]
                m = len(y)
                assert len(x_members) == m * (m + 1) // 2
                roots = {root_of_arc(t, e, f, v) for v in x_members}
                assert len(roots) == len(x_members)
                assert roots == set(delta_plus(YExt(y)))
    assert count == 1507


def test_x_downward_closed_and_union():
    z = ZModel.finite(6)
    for t in enumerate_triangulations(z):
        dims = _nonzero_dims(z, t)
        pairs = maximal_pairs(t)
        xsets = {}
        for pair in pairs:
            e, f = sorted(pair, key=z.key)
            xsets[pair] = {dv for dv in dims if in_X(t, e, f, dv)}
        # downward closure under support inclusion
        for pair, xs in xsets.items():
            for c in xs:
                for c2 in dims:
                    if support_subset(c2, c):
                        assert c2 in xs
        # every nonzero dimension vector lies in some maximal X
        for dv in dims:
            assert any(dv in xs for xs in xsets.values())


def twice_core():
    """The core diagonals {0, 2} and {0, 3} are also the fountain's first
    two right members."""
    z, t = fountain_fixture()
    return Triangulation(z, frozenset({z.arc(0, 2), z.arc(0, 3)}), t.tails)


@pytest.mark.parametrize("build", [twice_core, core_and_tail, two_tails])
def test_y_lists_an_arc_held_twice_once(build):
    """Y is the support of dim({e, f}): no member repeats in its members
    or at its ends, and a finite Y is the explicit support."""
    t = build()
    z = t.z
    assert validate(t).ok
    seen = 0
    for e, f in permutations(_points(z), 2):
        dim = dimension_vector(t, Arc(e, f))
        if dim.is_zero():
            continue
        y = crossing_order(t, e, f)
        if y.is_finite:
            assert sorted(y.members, key=str) == sorted(dim.explicit, key=str)
        for end in ((y.first(8) if y.has_least else []),
                    (y.last(8) if y.has_greatest else [])):
            assert len(set(end)) == len(end), (e, f)
        seen += 1
    assert seen >= 30
    if build is twice_core:
        y = crossing_order(t, 1, 5)
        assert str(y.descriptor()) == "Finite(3)"
        assert len(delta_plus(YExt(y))) == 6


# -- maximal pairs ----------------------------------------------------------


def test_maximal_pairs_finite():
    z, t = pentagon_fan()
    assert maximal_pairs(t) == {frozenset({z.v(1), z.v(4)})}
    z6, t6 = hexagon_cyclic()
    assert maximal_pairs(t6) == {
        frozenset({z6.v(1), z6.v(3)}),
        frozenset({z6.v(3), z6.v(5)}),
        frozenset({z6.v(1), z6.v(5)})}


def test_maximal_pairs_fountain():
    z, t = fountain_fixture()
    assert maximal_pairs(t) == {frozenset({z.v(1), z.v(-1)})}


def test_maximal_pairs_leapfrog():
    z, t = leapfrog_fixture()
    assert maximal_pairs(t) == {frozenset({Vertex(0, 0), Limit(0)})}


def test_hexagon_three_x_sets_sl3():
    z, t = hexagon_cyclic()
    dims = _nonzero_dims(z, t)
    assert len(dims) == 6  # |C+| = 6
    for pair in maximal_pairs(t):
        e, f = sorted(pair, key=z.key)
        xs = [dv for dv in dims if in_X(t, e, f, dv)]
        assert len(xs) == 3  # Delta+(sl_3)
        assert len(YExt(crossing_order(t, e, f))) == 3


def test_unique_maximal_iff_acyclic():
    z, t = pentagon_fan()
    rep = unique_maximal_iff_acyclic_report(t)
    assert rep.acyclic and len(rep.pairs) == 1 and rep.football is None

    z6, t6 = hexagon_cyclic()
    rep6 = unique_maximal_iff_acyclic_report(t6)
    assert not rep6.acyclic and len(rep6.pairs) == 3
    assert rep6.internal_triangle == (z6.v(0), z6.v(2), z6.v(4))
    assert all(t6.contains(s) for s in rep6.football)

    _, tf = fountain_fixture()
    repf = unique_maximal_iff_acyclic_report(tf)
    assert repf.acyclic and len(repf.pairs) == 1

    _, tl = leapfrog_fixture()
    repl = unique_maximal_iff_acyclic_report(tl)
    assert repl.acyclic and len(repl.pairs) == 1


def test_report_consistency_exhaustive():
    for n in (5, 6, 7):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            rep = unique_maximal_iff_acyclic_report(t)
            assert rep.acyclic == (len(rep.pairs) == 1)


def test_report_acyclic_is_the_dual_quiver_acyclic():
    """The report reads acyclicity off the internal triangles; the dual
    quiver over the reference window, with Kahn's algorithm, is the
    reference."""
    tris = [t for n in range(4, 10)
            for t in enumerate_triangulations(ZModel.finite(n))]
    tris += [_shift(_filled(random.Random(seed), k), m)
             for k in (1, 2, 3) for seed in range(40)
             for m in (0, 100, 10 ** 6)]
    tris += [build(m) for build in (fountain, leapfrog, blocks2)
             for m in (0, 100)]
    assert len(tris) == 624 + 360 + 6
    for t in tris:
        rep = unique_maximal_iff_acyclic_report(t)
        assert rep.acyclic == is_acyclic(t.dual_quiver(reference_nodes(t))), (
            t.core, t.tails)
        assert (rep.internal_triangle is None) == rep.acyclic


def test_root_system_labels():
    z, t = pentagon_fan()
    assert root_system_label(crossing_order(t, z.v(1), z.v(4))) \
        == "sl_3 positive roots"
    zf, tf = fountain_fixture()
    assert root_system_label(crossing_order(tf, zf.v(1), zf.v(-1))) \
        == "Borel of sl_infinity for Y = omega + omega*"


# -- the order key against the pairwise rule it replaced ----------------------


def _reference_cmp(y, x, w):
    """The pairwise rule on crossers of {e, f}: d1 compares the
    endpoints inside (e, f), read from e; d2 compares the other
    endpoints, read from f, descending.  A reference copy of the
    comparator that the order key replaced."""
    z = y.t.z
    if x == w:
        return 0

    def sides(a):
        if z.strictly_between(y.e, a.p, y.f):
            return a.p, a.q
        return a.q, a.p
    (px, qx), (pw, qw) = sides(x), sides(w)
    rp_x, rp_w = z.rel(px, y.e), z.rel(pw, y.e)
    d1 = -1 if rp_x < rp_w else (1 if rp_x > rp_w else 0)
    rq_x, rq_w = z.rel(qx, y.f), z.rel(qw, y.f)
    d2 = -1 if rq_x > rq_w else (1 if rq_x < rq_w else 0)
    if d1 == 0 and d2 == 0:
        raise ModelError(f"{x!r} and {w!r} coincide as crossers")
    if d1 == 0 or d1 == d2:
        return d2 if d1 == 0 else d1
    if d2 == 0:
        return d1
    raise ModelError(
        f"incomparable crossing diagonals {x!r}, {w!r} (crossing pair)")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ModelError as exc:
        return ("raises", str(exc))


def _window_members(y, window):
    """The members of Y among the arcs of ``window_nodes(window)``."""
    z = y.t.z
    return [a for a in y.t.window_nodes(window)
            if z.is_diagonal(a) and z.crosses(y.pair, a)]


def _assert_cmp_is_the_reference(y, members):
    for x in members:
        for w in members:
            assert (_outcome(y._cmp, x, w)
                    == _outcome(_reference_cmp, y, x, w)), (x, w)


def _oriented_pairs(t):
    for pair in maximal_pairs(t):
        e, f = sorted(pair, key=t.z.key)
        yield from ((e, f), (f, e))


FIXTURES = [fountain, leapfrog, blocks2]


@pytest.mark.parametrize("m", OFFSETS)
@pytest.mark.parametrize("build", FIXTURES)
def test_keyed_cmp_is_the_pairwise_rule_on_fixtures(build, m):
    t = build(m)
    for e, f in _oriented_pairs(t):
        y = crossing_order(t, e, f)
        _assert_cmp_is_the_reference(y, _window_members(y, 12))


@pytest.mark.parametrize("m", OFFSETS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_keyed_cmp_is_the_pairwise_rule_on_generated_tails(m, data):
    """Tails valid or not, so crossing members occur: there both rules
    raise the same error."""
    k = data.draw(st.sampled_from([1, 2]))
    t = Triangulation.make(ZModel.blocks(k), set(),
                           {g: data.draw(tails(k, m)) for g in range(k)})
    e, f = data.draw(st.lists(points(k, m), min_size=2, max_size=2,
                              unique=True))
    try:
        y = crossing_order(t, e, f)
        members = _window_members(y, 8)
    except ModelError:
        return  # Y is empty, or a listed tail member is not an arc
    _assert_cmp_is_the_reference(y, members)


def test_crossing_crossers_still_raise():
    z = ZModel.finite(8)
    t = Triangulation.make(z, {z.arc(0, j) for j in range(2, 7)})
    y = crossing_order(t, z.v(2), z.v(6))
    x, w = z.arc(3, 7), z.arc(4, 0)
    for a, b in ((x, w), (w, x)):
        with pytest.raises(ModelError, match=r"\(crossing pair\)$"):
            y._cmp(a, b)
        assert _outcome(y._cmp, a, b) == _outcome(_reference_cmp, y, a, b)
    bad = Triangulation.make(z, {x, w})
    with pytest.raises(ModelError, match="crossing pair"):
        crossing_order(bad, z.v(2), z.v(6))
    # a core diagonal crossing members of a tail run: the side runs raise
    z1 = ZModel.blocks(1)
    tf = Triangulation.make(z1, {z1.arc(1, 4)},
                            {0: Fountain(Vertex(0, 0), 2, -2)})
    yf = crossing_order(tf, z1.v(-1), z1.v(2))
    for neighbor in (yf.pred_in, yf.succ_in) * 2:  # no failure is kept
        with pytest.raises(ModelError, match="crossing pair"):
            neighbor(z1.arc(1, 4))


@pytest.mark.parametrize("m", OFFSETS)
@pytest.mark.parametrize("build", FIXTURES)
def test_neighbors_and_crossing_intervals_are_brute_force(build, m):
    """Against Y's members over a wide explicit window, sorted by the
    reference rule: every neighbour of a member near the finite ends
    lies one index along its run, so inside the window."""
    t = build(m)
    z = t.z
    verts = [Vertex(b, i) for b in range(z.k) for i in range(m - 6, m + 7)]
    probes = [Arc(p, q) for i, p in enumerate(verts) for q in verts[i + 1:]
              if z.is_diagonal(Arc(p, q))]
    for e, f in _oriented_pairs(t):
        y = crossing_order(t, e, f)
        wide = sorted(_window_members(y, 40), key=functools.cmp_to_key(
            functools.partial(_reference_cmp, y)))
        for a in _window_members(y, 12):
            i = wide.index(a)
            assert y.pred_in(a) == (wide[i - 1] if i > 0 else None)
            assert y.succ_in(a) == (wide[i + 1] if i + 1 < len(wide)
                                    else None)
        for v in probes:
            dv = dimension_vector(t, v)
            if dv.is_zero() or not in_X(t, e, f, dv):
                continue
            crossers = [a for a in wide if z.crosses(v, a)]
            assert y.crossing_interval_of(v) == (crossers[0], crossers[-1])


@pytest.mark.parametrize("m", (0, 100))
@pytest.mark.parametrize("build", FIXTURES)
def test_root_of_arc_is_psi_of_the_crossing_interval(build, m, monkeypatch):
    """root_of_arc and decompose_row build the root from the ends that
    crossing_interval_of returns, testing no membership in Y again, and
    agree with the checked psi; off X_{e,f}, decompose_row gives None
    and root_of_arc its error."""
    t = build(m)
    z = t.z
    verts = [Vertex(b, i) for b in range(z.k) for i in range(m - 6, m + 7)]
    probes = [Arc(p, q) for i, p in enumerate(verts) for q in verts[i + 1:]
              if z.is_diagonal(Arc(p, q))]
    calls = []
    contains = OrderedCrossingSet.contains

    def counting(self, a):
        calls.append(a)
        return contains(self, a)
    monkeypatch.setattr(OrderedCrossingSet, "contains", counting)
    rows = 0
    for e, f in _oriented_pairs(t):
        y = crossing_order(t, e, f)
        for v in probes:
            dv = dimension_vector(t, v)
            if dv.is_zero() or not in_X(t, e, f, dv):
                assert decompose_row(t, e, f, v) is None
                with pytest.raises(ModelError, match="no diagonal" if
                                   dv.is_zero() else "is not in X"):
                    root_of_arc(t, e, f, v)
                continue
            root, row = root_of_arc(t, e, f, v), decompose_row(t, e, f, v)
            assert calls == []
            assert root == row == psi(y, *y.crossing_interval_of(v))
            calls.clear()
            rows += 1
    assert rows > 0


# -- Y's crossers of v, read off dim(v) ---------------------------------------


def _reference_crossing_interval(y, v):
    """The construction that ``crossing_interval_of`` replaced: v's
    crossing runs found afresh on each of Y's tail runs, and Y's
    explicit members crossing v by their keys."""
    z = y.t.z
    kv = (z.key(v.p), z.key(v.q))
    cands = [m for m in y._explicit if keys_cross(*kv, *y._keys[m][1:])]
    runs = [(r, lo, hi) for r in y._runs
            for lo, hi in _crossing_runs(z, r.sf, v)]
    if not cands and not runs:
        raise ModelError(f"{v!r} crosses no member of Y")
    msg = "extreme crossing member approaches a limit point"
    return (y._select(list(cands), runs, True, msg),
            y._select(cands, runs, False, msg))


def _outcome_or_unattained(fn, *args):
    try:
        return fn(*args)
    except (ModelError, UnattainedError) as exc:
        return (type(exc), str(exc))


def _assert_crossers_are_the_reference(t, pairs, probes, seen):
    for e, f in pairs:
        try:
            y = crossing_order(t, e, f)
        except ModelError:
            continue  # Y is empty
        for v in probes:
            dv = dimension_vector(t, v)
            want = _outcome_or_unattained(_reference_crossing_interval, y, v)
            assert _outcome_or_unattained(
                y.crossing_interval_of, v, dv) == want, (t, e, f, v)
            if "crosses no member" in str(want):
                seen["crosses none"] += 1
            elif not dv.is_zero() and in_X(t, e, f, dv):
                seen["in X"] += 1
            else:
                seen["outside X"] += 1


@pytest.mark.parametrize("m", [0, 10 ** 6])
def test_crossing_interval_through_dim_is_the_reference(m):
    """The crossers of v read off dim(v) equal the reference's, errors
    included, in X_{e,f}, outside it, and where v crosses no member; v
    runs over the diagonals of a window.  The pairs are every oriented
    maximal pair of generated valid Blocks(1..3) triangulations, and
    every pair of window and limit points on the fountain and blocks2
    fixtures: off the maximal pairs, v crosses fountain members that Y
    lacks or holds only explicitly, so each of the three kinds of term
    decides some answer."""
    rng = random.Random(14)
    seen = {"in X": 0, "outside X": 0, "crosses none": 0}
    cases = []
    for k in (1, 2, 3):
        for _ in range(2):
            t = _shift(_flipped(rng, k), m)
            assert validate(t).ok
            cases.append((t, list(_oriented_pairs(t))))
    for build in (fountain, blocks2):
        t = build(m)
        ends = [Vertex(b, i) for b in range(t.z.k)
                for i in range(m - 2, m + 3)]
        cases.append((t, list(permutations(
            ends + [Limit(g) for g in range(t.z.k)], 2))))
    for t, pairs in cases:
        verts = [Vertex(b, i) for b in range(t.z.k)
                 for i in range(m - 3, m + 4)]
        probes = [a for a in (Arc(p, q) for p, q in combinations(verts, 2))
                  if t.z.is_diagonal(a)]
        _assert_crossers_are_the_reference(t, pairs, probes, seen)
    assert min(seen.values()) > 0, seen


def test_decompose_row_reads_crossers_off_dim_and_keeps_neighbors(
        monkeypatch):
    """A decompose row finds crossing runs only inside dimension_vector,
    and a second interval root of one member runs no side runs: Y keeps
    its neighbours."""
    callers = []

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return _crossing_runs(*args)
    for mod in (triangulation, cvector, decomposition):
        if getattr(mod, "_crossing_runs", None) is _crossing_runs:
            monkeypatch.setattr(mod, "_crossing_runs", counting)
    side = []
    side_runs = OrderedCrossingSet._side_runs

    def counting_side(self, *args):
        side.append(args)
        return side_runs(self, *args)
    monkeypatch.setattr(OrderedCrossingSet, "_side_runs", counting_side)
    rows = filled = 0
    for build in FIXTURES:
        t = build(0)
        z = t.z
        verts = [Vertex(b, i) for b in range(z.k) for i in range(-4, 5)]
        for e, f in _oriented_pairs(t):
            y = crossing_order(t, e, f)
            for p, q in combinations(verts, 2):
                v = Arc(p, q)
                if not z.is_diagonal(v):
                    continue
                side.clear()
                root = decompose_row(t, e, f, v)
                if root is None:
                    continue
                rows += 1
                filled += bool(side)
                a, b = y.crossing_interval_of(v)
                side.clear()
                assert _interval_root(y, a, b) == root
                assert side == []
                assert y.pred_in(a) == (None if root.neg is NEG_INFINITY
                                        else root.neg)
                assert side == []
    assert rows > filled > 0
    assert callers and set(callers) == {"dimension_vector"}
