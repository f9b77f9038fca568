"""c-vectors, dimension vectors, image arcs, realization."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from infgon.cvector import (CVectorQuery, CoVector, RealizationUnsupported,
                            cvector_bar_eval, cvector_eval, cvector_full,
                            dimension_vector, image_arc,
                            realize_dimension_vector, support, support_subset)
from infgon.homindex import KVector, index
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  enumerate_triangulations, validate)
from infgon.zmodel import Arc, Limit, ModelError, Vertex, ZModel, suspend
from test_validate import _filled, _shift


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
    # c(Sigma u, Sigma U) = -c_bar(u, U)
    z = ZModel.finite(5)
    tris = enumerate_triangulations(z)
    for t in tris:
        for u_tri in tris:
            su_core = frozenset(suspend(z, a) for a in u_tri.core)
            su_tri = Triangulation.make(z, su_core)
            for u_arc in u_tri.core:
                q_bar = CVectorQuery(t, u_tri, u_arc)
                q_rot = CVectorQuery(t, su_tri, suspend(z, u_arc))
                for d in t.core:
                    assert (cvector_eval(q_rot, d)
                            == -cvector_bar_eval(q_bar, d))


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
    assert support(a).arcs == frozenset({z.arc(0, 2)})


def test_support_inclusion_tails():
    z, t = fountain_fixture()
    inner = dimension_vector(t, z.arc(3, -3))   # spokes |n| >= 4
    outer = dimension_vector(t, z.arc(2, -2))   # spokes |n| >= 3
    assert support_subset(inner, outer)
    assert not support_subset(outer, inner)
    assert support_subset(outer, outer)


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
                          for d, c in kv.coeffs.items())
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
