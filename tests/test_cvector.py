"""c-vectors, dimension vectors, image arcs, realization."""

from __future__ import annotations

import pathlib
import random
import subprocess
import sys
import textwrap
from functools import partial
from itertools import combinations

import pytest

from infgon.cvector import (CVectorQuery, CoVector, RealizationUnsupported,
                            _complete_greedy, cvector_eval, cvector_full,
                            dimension_vector, image_arc,
                            realize_dimension_vector, support_subset)
from infgon.homindex import check_duality, index, index_coeffs
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  enumerate_triangulations, validate)
from infgon.zmodel import Arc, Limit, ModelError, Vertex, ZModel, suspend
from test_validate import _filled, _shift, crossing_quadruple


def pentagon_fixtures():
    z = ZModel.finite(5)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})
    u = Triangulation.make(z, {z.arc(1, 3), z.arc(1, 4)})
    return z, t, u


def fountain_fixture():
    z = ZModel.blocks(1)
    return z, Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})


def all_diagonals(z):
    return [z.arc(i, j) for i, j in combinations(range(z.n), 2)
            if z.is_diagonal(z.arc(i, j))]


def test_cvector_eval_pentagon():
    z, t, u = pentagon_fixtures()
    q = CVectorQuery(t, u, z.arc(1, 4))
    assert cvector_eval(q, z.arc(0, 2)) == -1
    assert cvector_eval(q, z.arc(0, 3)) == -1
    q2 = CVectorQuery(t, u, z.arc(1, 3))
    assert cvector_eval(q2, z.arc(0, 2)) == 0
    assert cvector_eval(q2, z.arc(0, 3)) == 1


def test_cvector_self_dual_basis():
    z, t, _ = pentagon_fixtures()
    for u_arc in t.core:
        q = CVectorQuery(t, t, u_arc)
        for d in t.core:
            assert cvector_eval(q, d) == (1 if d == u_arc else 0)


def test_cvector_bar_relation():
    # c(Sigma u, Sigma U) = -c_bar(u, U), where c_bar(u, U) at d is the
    # coefficient of [u] in index(U, d)
    z = ZModel.finite(5)
    tris = enumerate_triangulations(z)
    for t in tris:
        for u_tri in tris:
            su_core = frozenset(suspend(z, a) for a in u_tri.core)
            su_tri = Triangulation.make(z, su_core)
            for u_arc in u_tri.core:
                q_rot = CVectorQuery(t, su_tri, suspend(z, u_arc))
                for d in t.core:
                    assert (cvector_eval(q_rot, d)
                            == -index_coeffs(u_tri, d).get(u_arc, 0))


def test_dimension_vector_pentagon():
    z, t, _ = pentagon_fixtures()
    dv = dimension_vector(t, z.arc(1, 4))
    assert dv.eval(z.arc(0, 2)) == 1
    assert dv.eval(z.arc(0, 3)) == 1
    assert dimension_vector(t, z.arc(1, 3)).eval(z.arc(0, 3)) == 0
    assert dimension_vector(t, z.arc(3, 4)).is_zero()


def test_dimension_vector_fountain_tail():
    z, t = fountain_fixture()
    dv = dimension_vector(t, z.arc(2, -2))
    # crosses exactly the spokes {0, n} with |n| >= 3
    assert dv.tail_terms
    for n in (3, 4, 17, -3, -4, -17):
        assert dv.eval(z.arc(0, n)) == 1
    for n in (2, -2):
        assert dv.eval(z.arc(0, n)) == 0


def test_dimension_vector_virtual_endpoint_at_limit():
    z, t = fountain_fixture()
    dv = dimension_vector(t, Arc(Limit(0), Vertex(0, 0)))
    for n in (2, 5, -2, -5):
        assert dv.eval(z.arc(0, n)) == 0
    dv2 = dimension_vector(t, Arc(Limit(0), Vertex(0, 1)))
    for n in (2, 5, 40):
        assert dv2.eval(z.arc(0, n)) == 1
    for n in (-2, -5):
        assert dv2.eval(z.arc(0, n)) == 0


def test_support_inclusion():
    z, t, _ = pentagon_fixtures()
    a = dimension_vector(t, z.arc(1, 3))
    b = dimension_vector(t, z.arc(1, 4))
    assert support_subset(a, b)
    assert not support_subset(b, a)
    assert a.explicit == {z.arc(0, 2): 1} and not a.tail_terms


def test_support_inclusion_tails():
    z, t = fountain_fixture()
    inner = dimension_vector(t, z.arc(3, -3))   # spokes |n| >= 4
    outer = dimension_vector(t, z.arc(2, -2))   # spokes |n| >= 3
    assert support_subset(inner, outer)
    assert not support_subset(outer, inner)
    assert support_subset(outer, outer)


def _support_subset_reference(a, b):
    """The earlier ``support_subset``, kept as a reference: it takes the
    covering term of b with the furthest finite end and checks the
    members between the two finite ends one by one."""
    if a.t != b.t:
        raise ModelError("supports live over different triangulations")
    for arc in a.explicit:
        if b.eval(arc) == 0:
            return False
    fams = {(sf.gap, sf.sub): sf for sf in a.t.subfamilies()}
    for tr in a.tail_terms:
        bmatches = [s for s in b.tail_terms
                    if (s.gap, s.sub) == (tr.gap, tr.sub)]
        if not bmatches:
            return False
        sf = fams[(tr.gap, tr.sub)]
        if tr.hi is None:
            cover = [s for s in bmatches if s.hi is None]
            if not cover:
                return False
            s = min(cover, key=lambda s: s.lo if s.lo is not None else -10 ** 9)
            lo_a = tr.lo if tr.lo is not None else sf.imin
            lo_b = s.lo if s.lo is not None else sf.imin
            if lo_b is not None and lo_a is not None and lo_b > lo_a:
                for i in range(lo_a, lo_b):
                    if b.eval(sf.member(i)) == 0:
                        return False
            elif lo_a is None and lo_b is not None:
                return False
        if tr.lo is None:
            cover = [s for s in bmatches if s.lo is None]
            if not cover:
                return False
            s = max(cover, key=lambda s: s.hi if s.hi is not None else 10 ** 9)
            hi_a = tr.hi if tr.hi is not None else sf.imax
            hi_b = s.hi if s.hi is not None else sf.imax
            if hi_b is not None and hi_a is not None and hi_b < hi_a:
                for i in range(hi_b + 1, hi_a + 1):
                    if b.eval(sf.member(i)) == 0:
                        return False
            elif hi_a is None and hi_b is not None:
                return False
    return True


def _assert_support_subset_is_the_reference(t, arcs):
    """On every ordered pair of distinct nonzero dimension vectors of
    ``arcs``, and of such a vector and the negative of another."""
    dims = list(dict.fromkeys(dv for dv in map(
        partial(dimension_vector, t), arcs) if not dv.is_zero()))
    for a in dims:
        for b in dims:
            assert support_subset(a, b) == _support_subset_reference(a, b)
        assert support_subset(-a, a) and support_subset(a, -a)
    return len(dims) ** 2


def test_support_subset_is_the_reference_on_polygons():
    pairs = 0
    for n in (5, 6, 7):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            pairs += _assert_support_subset_is_the_reference(
                t, all_diagonals(z))
    assert pairs == 4749


def test_support_subset_is_the_reference_on_generated():
    rng = random.Random(11)
    pairs = 0
    for k in (1, 2, 3):
        for _ in range(3):
            t = _filled(rng, k)
            for m in (0, 7):
                tm = _shift(t, m)
                pts = _points(tm.z, m - 2, m + 2)
                pairs += _assert_support_subset_is_the_reference(
                    tm, [Arc(p, q) for p, q in combinations(pts, 2)])
    assert pairs > 100_000


def test_image_arc_pentagon():
    z, t, _ = pentagon_fixtures()
    v = image_arc(t, z.arc(1, 3), z.arc(2, 4))
    assert v is not None
    dv = dimension_vector(t, v)
    assert dv.eval(z.arc(0, 3)) == 1
    assert dv.eval(z.arc(0, 2)) == 0


def test_image_arc_none_inside_triangle():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 3), z.arc(3, 5), z.arc(0, 4)})
    # u, u* crossing inside the triangle {0,1,2,3}-ish region away from T
    v = image_arc(t, z.arc(1, 3), z.arc(0, 2))
    assert v is None


def test_cvector_full_pentagon():
    z, t, u = pentagon_fixtures()
    sign, arc, cov = cvector_full(CVectorQuery(t, u, z.arc(1, 4)))
    assert sign == -1
    assert cov.eval(z.arc(0, 2)) == -1 and cov.eval(z.arc(0, 3)) == -1
    sign2, arc2, cov2 = cvector_full(CVectorQuery(t, u, z.arc(1, 3)))
    assert sign2 == 1
    assert cov2.eval(z.arc(0, 2)) == 0 and cov2.eval(z.arc(0, 3)) == 1


def test_cvector_full_matches_eval_everywhere():
    z = ZModel.finite(6)
    tris = enumerate_triangulations(z)
    for t in tris[:6]:
        for u_tri in tris:
            for u_arc in u_tri.core:
                q = CVectorQuery(t, u_tri, u_arc)
                sign, _, cov = cvector_full(q)
                for d in t.core:
                    assert cov.eval(d) == cvector_eval(q, d)
                assert cov.sign_coherent()
                assert (sign > 0) == cov.is_positive()


def test_cvector_duality_pairing():
    # <c(u, U), index(T, v)> = delta_{uv}
    z = ZModel.finite(6)
    tris = enumerate_triangulations(z)
    t = tris[0]
    for u_tri in tris:
        for u_arc in u_tri.core:
            q = CVectorQuery(t, u_tri, u_arc)
            for v_arc in u_tri.core:
                kv = index(t, v_arc)
                val = sum(c * cvector_eval(q, d)
                          for d, c in kv.explicit.items())
                assert val == (1 if v_arc == u_arc else 0)


def test_realize_pentagon():
    z, t, _ = pentagon_fixtures()
    u_tri, u = realize_dimension_vector(t, z.arc(1, 3))
    q = CVectorQuery(t, u_tri, u)
    dv = dimension_vector(t, z.arc(1, 3))
    assert all(cvector_eval(q, d) == dv.eval(d) for d in t.core)


def test_realize_hexagon_cyclic():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(2, 4), z.arc(4, 0)})
    u_tri, u = realize_dimension_vector(t, z.arc(1, 5))
    dv = dimension_vector(t, z.arc(1, 5))
    assert dv.eval(z.arc(0, 2)) == 1 and dv.eval(z.arc(0, 4)) == 1
    assert dv.eval(z.arc(2, 4)) == 0
    q = CVectorQuery(t, u_tri, u)
    assert all(cvector_eval(q, d) == dv.eval(d) for d in t.core)


def _realize_through_u0(t, v):
    """(U, u) built the long way: the triangulation U0 of
    ``realize_dimension_vector``'s docstring, the flip at u0 there,
    then the suspension of the pair."""
    z = t.z
    i0, _, i1, _ = crossing_quadruple(t, v)
    keep = {d for d in t.core if not z.crosses(v, d)}
    u0 = Arc(i0, i1)
    for extra in (u0, Arc(i0, v.p), Arc(i1, v.q)):
        if z.is_diagonal(extra):
            keep.add(extra)
    core = _complete_greedy(t, keep)
    u_star = Triangulation.make(z, core).exchange_partner(u0)
    u_tri = Triangulation.make(
        z, {suspend(z, d) for d in (core - {u0}) | {u_star}})
    return (u_tri, suspend(z, u_star))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_realize_is_the_flip_at_u0(n):
    """The direct (U, u) is the one built through U0 and its flip, for
    every triangulation T of the n-gon and every diagonal v crossing T."""
    z = ZModel.finite(n)
    pairs = 0
    for t in enumerate_triangulations(z):
        for v in all_diagonals(z):
            if v in t.core:
                continue
            assert realize_dimension_vector(t, v) == _realize_through_u0(t, v)
            pairs += 1
    assert pairs == {5: 15, 6: 84, 7: 420, 8: 1980}[n]


class _Asked(Exception):
    """Stops a realization once both triangle checks are asked."""


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_realize_reads_the_crossing_quadruple_off_dim(n, monkeypatch):
    """The ends (i0, s0, i1, s1) that ``realize_dimension_vector`` reads
    off dim(v) are ``crossing_quadruple(t, v)``, for every triangulation
    T of the n-gon and every diagonal v crossing T: its two checks ask
    third_vertex for the triangles on {s0, i1} toward v0 and on
    {i0, s1} toward v1, and it asks nothing else before them."""
    z = ZModel.finite(n)
    cases = [(t, v, crossing_quadruple(t, v))
             for t in enumerate_triangulations(z)
             for v in all_diagonals(z) if v not in t.core]
    assert len(cases) == {5: 15, 6: 84, 7: 420, 8: 1980, 9: 9009}[n]
    asked = []
    third_vertex = Triangulation.third_vertex

    def spy(self, d, side):
        asked.append((self, d, side))
        if len(asked) == 2:
            raise _Asked
        return third_vertex(self, d, side)

    monkeypatch.setattr(Triangulation, "third_vertex", spy)
    for t, v, (i0, s0, i1, s1) in cases:
        asked.clear()
        with pytest.raises(_Asked):
            realize_dimension_vector(t, v)
        assert asked == [(t, Arc(s0, i1), v.p), (t, Arc(i0, s1), v.q)]


def test_realize_checks_survive_python_O():
    """Under ``python -O``, which drops assert statements, a
    third_vertex that misplaces a triangle still makes
    ``realize_dimension_vector`` raise."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        from infgon.cvector import realize_dimension_vector
        from infgon.triangulation import Triangulation
        from infgon.zmodel import ZModel
        assert False, "assert statements run"
        z = ZModel.finite(5)
        t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})
        Triangulation.third_vertex = lambda self, d, side: z.succ(side)
        try:
            realize_dimension_vector(t, z.arc(1, 4))
        except AssertionError as exc:
            print(exc)
        """)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={"PYTHONPATH": str(src),
                               "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "the triangle of T on Arc(V(0,0),V(0,2)) toward Arc(V(0,1),V(0,4)) "
        "rests on V(0,2), not on V(0,1)"]


def test_dimension_vector_rejects_a_core_arc_that_is_no_diagonal():
    """A core holding an edge, or an arc to a limit point, is refused
    with ModelError, as ``validate`` would refuse it."""
    z = ZModel.finite(5)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(2, 3)})
    with pytest.raises(ModelError, match="is not a diagonal"):
        dimension_vector(t, z.arc(1, 3))
    zb, tb = fountain_fixture()
    tb = Triangulation.make(zb, {Arc(Vertex(0, 0), Limit(0))},
                            {0: Fountain(Vertex(0, 0), 2, -2)})
    with pytest.raises(ModelError, match="is not a diagonal"):
        dimension_vector(tb, zb.arc(-1, 1))


def test_realize_rejects_zero():
    z, t, _ = pentagon_fixtures()
    with pytest.raises(ModelError):
        realize_dimension_vector(t, z.arc(0, 2))


def test_realize_rejects_infinite():
    z, t = fountain_fixture()
    with pytest.raises(RealizationUnsupported):
        realize_dimension_vector(t, z.arc(2, -2))


def test_sign_coherence_exhaustive_pentagon():
    z = ZModel.finite(5)
    tris = enumerate_triangulations(z)
    for t in tris:
        for u_tri in tris:
            for u_arc in u_tri.core:
                q = CVectorQuery(t, u_tri, u_arc)
                vals = [cvector_eval(q, d) for d in t.core]
                assert all(v >= 0 for v in vals) or all(v <= 0 for v in vals)


def test_cpos_equals_dimension_vectors_pentagon():
    z = ZModel.finite(5)
    tris = enumerate_triangulations(z)
    for t in tris:
        cpos = set()
        for u_tri in tris:
            for u_arc in u_tri.core:
                sign, _, cov = cvector_full(CVectorQuery(t, u_tri, u_arc))
                if sign > 0:
                    cpos.add(cov)
        dset = set()
        for v in all_diagonals(z):
            dv = dimension_vector(t, v)
            if not dv.is_zero():
                dset.add(dv)
        assert cpos == dset
        assert len(cpos) == 3


# -- an arc that T holds twice counts once ----------------------------------


def _points(z, lo=-3, hi=3):
    """The vertices lo..hi of every block and every limit point."""
    return ([Vertex(b, i) for b in range(z.k) for i in range(lo, hi + 1)]
            + [Limit(g) for g in range(z.k)])


def core_and_tail():
    """The core diagonal {0, 2} is also the fountain's first right member."""
    z, t = fountain_fixture()
    return Triangulation(z, frozenset({z.arc(0, 2)}), t.tails)


def two_tails():
    """{(0,0), (1,2)} is a member of the fountain at L(0) and of the
    leapfrog at L(1)."""
    return Triangulation.make(ZModel.blocks(2), (),
                              {0: Fountain(Vertex(1, 2), 0, 0),
                               1: Leapfrog(2, 0)})


def _assert_crossing_indicator(t):
    z = t.z
    nodes = t.window_nodes(6)
    for v in (Arc(p, q) for p, q in combinations(_points(z), 2)):
        dv = dimension_vector(t, v)
        assert [dv.eval(d) for d in nodes] == [int(z.crosses(v, d))
                                              for d in nodes], v


def test_arc_held_twice_counts_once():
    t = core_and_tail()
    z = t.z
    assert validate(t).ok and t.tail_ref_of(z.arc(0, 2)) is not None
    assert dimension_vector(t, z.arc(1, -1)).eval(z.arc(0, 2)) == 1
    t2 = two_tails()
    shared = Arc(Vertex(0, 0), Vertex(1, 2))
    assert validate(t2).ok
    assert sum(sf.index_of(shared) is not None
               for sf in t2.subfamilies()) == 2
    dv = dimension_vector(t2, Arc(Vertex(0, -1), Vertex(1, 1)))
    assert dv.eval(shared) == 1 and shared not in dv.explicit
    for t in (core_and_tail(), two_tails()):
        _assert_crossing_indicator(t)


def test_dimension_vector_is_the_crossing_indicator_on_generated():
    for seed in range(8):
        for k in (1, 2, 3):
            _assert_crossing_indicator(_filled(random.Random(seed), k))


# -- exact signs: non-reachable pairs and far offsets ------------------------


def far_pair(m):
    """T the fountain at vertex 0; U a fountain at vertex m with the
    core diagonal u = {m+1, m+3}.  The c-vector is supported at the
    single member {0, m+2} of T."""
    z, t = fountain_fixture()
    u = z.arc(m + 1, m + 3)
    u_tri = Triangulation.make(z, {u}, {0: Fountain(Vertex(0, m), m + 3,
                                                     m - 2)})
    return z, t, u_tri, u


@pytest.mark.parametrize("m", [5, 10, 20, 100, 10 ** 6])
def test_cvector_sign_at_any_offset(m):
    z, t, u_tri, u = far_pair(m)
    assert validate(t).ok and validate(u_tri).ok
    q = CVectorQuery(t, u_tri, u)
    sign, v, cov = cvector_full(q)
    assert (sign, v) == (-1, u)
    assert cov == CoVector(t, {z.arc(0, m + 2): -1})
    assert cvector_eval(q, z.arc(0, m + 2)) == -1


def _independent_pairs():
    """(T, U) drawn independently over Blocks(1..3), U shifted by 0 or
    3: generically no finite flip path joins them."""
    rng = random.Random(7)
    return [(_filled(rng, k), _shift(_filled(rng, k), m))
            for k in (1, 2, 3) for m in (0, 3) for _ in range(4)]


def test_cvector_full_on_non_reachable_pairs():
    count = tail_u = 0
    for t, u_tri in _independent_pairs():
        nodes = t.window_nodes(4)
        for u in u_tri.window_nodes(1):
            q = CVectorQuery(t, u_tri, u)
            sign, _, cov = cvector_full(q)
            assert cov.sign_coherent() and (sign > 0) == cov.is_positive()
            assert ([cov.eval(d) for d in nodes]
                    == [cvector_eval(q, d) for d in nodes]), (t, u_tri, u)
            count += 1
            tail_u += u not in u_tri.core
    assert count >= 300 and tail_u >= 150


def test_duality_on_non_reachable_pairs():
    """Nakanishi-Zelevinsky duality, in its categorical form, on pairs
    that no finite flip path joins."""
    for t, u_tri in _independent_pairs()[::2]:
        rep = check_duality(t, u_tri, t.window_nodes(3), u_tri.window_nodes(3))
        assert rep.ok, (t, u_tri, rep.failures)


def _shift_arc(a, m):
    return Arc(*(Vertex(p.block, p.idx + m) for p in (a.p, a.q)))


@pytest.mark.parametrize("m", [5, 10 ** 6])
def test_cvector_full_shifts_with_its_pair(m):
    """Shifting T, U and u by m shifts the c-vector by m: the same sign,
    the shifted arc and explicit arcs, and fountain tail terms moved by
    m (leapfrog members are numbered from the tail's start, so a
    leapfrog term would stay)."""
    count = 0
    for t, u_tri in _independent_pairs()[1::2]:
        tm, um = _shift(t, m), _shift(u_tri, m)
        moves = {g: m if isinstance(tl, Fountain) else 0 for g, tl in t.tails}
        for u in u_tri.window_nodes(1):
            sign, v, cov = cvector_full(CVectorQuery(t, u_tri, u))
            got = cvector_full(CVectorQuery(tm, um, _shift_arc(u, m)))
            terms = tuple(tr._replace(
                lo=None if tr.lo is None else tr.lo + moves[tr.gap],
                hi=None if tr.hi is None else tr.hi + moves[tr.gap])
                for tr in cov.tail_terms)
            assert got == (sign, _shift_arc(v, m), CoVector(
                tm, {_shift_arc(a, m): c for a, c in cov.explicit.items()},
                terms)), (t, u_tri, u)
            count += 1
    assert count >= 100
