"""The package's value classes: NamedTuple records and small frozen
classes.  Their repr text, hash values and equality are pinned to what
they were as frozen dataclasses, so set and dict orders, and every
output built from them, stay the same."""

from __future__ import annotations

import copy
import pickle

import pytest

from infgon.cvector import CVectorQuery, TailRange
from infgon.decomposition import (NEG_INFINITY, MaximalityReport,
                                  OrderDescriptor, Root)
from infgon.homindex import DualityReport, ZigZagPath
from infgon.triangulation import (DualQuiver, Fountain, Leapfrog,
                                  Triangulation, ValidationReport,
                                  _SubFamily)
from infgon.zmodel import (Arc, Limit, ModelError, Vertex as V, ZModel,
                           suspend)

Z = ZModel.finite(5)
A = Arc(V(0, 0), V(0, 2))
T = Triangulation.make(Z, {A, Arc(V(0, 0), V(0, 3))})
T_REPR = ("Triangulation(z=ZModel(n=5, k=None), core=frozenset({"
          + ", ".join(map(repr, T.core)) + "}), tails=())")

# (instance, repr text, fields); the first six are the hand-written
# classes, the rest NamedTuples.
RECORDS = [
    (Limit(1), "L(1)", ("gap",)),
    (Z, "ZModel(n=5, k=None)", ("n", "k")),
    (A, "Arc(V(0,0),V(0,2))", ("p", "q")),
    (T, T_REPR, ("z", "core", "tails")),
    (CVectorQuery(T, T, A),
     f"CVectorQuery(t={T_REPR}, u_tri={T_REPR}, u=Arc(V(0,0),V(0,2)))",
     ("t", "u_tri", "u")),
    (_SubFamily(0, "right", 2, None, (0, 0, 0), (0, 0, 1)),
     "_SubFamily(gap=0, sub='right', imin=2, imax=None, e1=(0, 0, 0), "
     "e2=(0, 0, 1))", ("gap", "sub", "imin", "imax", "e1", "e2")),
    (Fountain(V(0, 0), 2, -2),
     "Fountain(base=V(0,0), right_from=2, left_to=-2)",
     ("base", "right_from", "left_to")),
    (Leapfrog(1, -1), "Leapfrog(right_from=1, left_to=-1)",
     ("right_from", "left_to")),
    (ValidationReport(True),
     "ValidationReport(ok=True, reason=None, witness=None)",
     ("ok", "reason", "witness")),
    (DualQuiver((A,), ()),
     "DualQuiver(nodes=(Arc(V(0,0),V(0,2)),), arrows=())",
     ("nodes", "arrows")),
    (ZigZagPath((V(0, 1), V(0, 4))), "ZigZagPath(vertices=(V(0,1), V(0,4)))",
     ("vertices",)),
    (DualityReport(True, ()), "DualityReport(ok=True, failures=())",
     ("ok", "failures")),
    (TailRange(0, "right", 2, None, 1),
     "TailRange(gap=0, sub='right', lo=2, hi=None, coeff=1)",
     ("gap", "sub", "lo", "hi", "coeff")),
    (NEG_INFINITY, "-inf", ()),
    (OrderDescriptor(head=True),
     "OrderDescriptor(finite_size=None, head=True, z_blocks=0, tail=False)",
     ("finite_size", "head", "z_blocks", "tail")),
    (Root(A, NEG_INFINITY), "Root(pos=Arc(V(0,0),V(0,2)), neg=-inf)",
     ("pos", "neg")),
    (MaximalityReport(True, frozenset()),
     "MaximalityReport(acyclic=True, pairs=frozenset(), football=None, "
     "internal_triangle=None)",
     ("acyclic", "pairs", "football", "internal_triangle")),
]
HAND_WRITTEN = RECORDS[:6]


def _values(x, fields):
    return tuple(getattr(x, f) for f in fields)


@pytest.mark.parametrize("x, text, fields", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_repr_hash_and_frozen_fields(x, text, fields):
    assert repr(x) == text
    assert hash(x) == hash(_values(x, fields))
    assert x  # every record is truthy, -inf included
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, None)


@pytest.mark.parametrize("x, text, fields", HAND_WRITTEN,
                         ids=[type(r[0]).__name__ for r in HAND_WRITTEN])
def test_hand_written_classes_compare_within_their_class(x, text, fields):
    twin = type(x)(*_values(x, fields))
    assert twin == x and hash(twin) == hash(x) and not twin != x
    assert x != _values(x, fields)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_no_equality_across_classes():
    instances = [r[0] for r in RECORDS]
    for i, x in enumerate(instances):
        for y in instances[i + 1:]:
            assert x != y and y != x, (x, y)
    assert Limit(0) != V(0, 0) and V(0, 0) != Limit(0)
    assert Arc(V(0, 0), Limit(0)) != Arc(V(0, 0), V(0, 1))


def test_equal_arcs_hash_alike_however_built():
    """An arc keeps the hash of (p, q) from construction: equal arcs from
    every constructor compare equal and hash as that tuple, so set and
    dict orders stay as they were."""
    b1, b2 = ZModel.blocks(1), ZModel.blocks(2)
    sf = _SubFamily(0, "right", 2, None, (0, 0, 0), (0, 0, 1))
    groups = [
        [Arc(V(0, 0), V(0, 2)), Arc(V(0, 2), V(0, 0)), Z.arc(2, 0),
         suspend(Z, Z.arc(1, 3)), A],
        [Arc(V(0, 0), V(0, 5)), b1.arc(5, 0), sf.member(5),
         suspend(b1, b1.arc(1, 6))],
        [Arc(V(1, 3), Limit(0)), b2.arc(Limit(2), (1, 3))],
    ]
    for group in groups:
        a = group[0]
        group += [copy.copy(a), pickle.loads(pickle.dumps(a))]
        for b in group:
            assert b == a and a == b and not b != a
            assert hash(b) == hash(a) == hash((a.p, a.q)) == hash((b.p, b.q))
        assert len(set(group)) == 1
    assert Arc(V(0, 0), V(0, 3)) != groups[0][0]
    assert len({a for group in groups for a in group}) == len(groups)


def test_construction_checks_stay():
    with pytest.raises(ModelError, match="exactly one of n, k"):
        ZModel()
    with pytest.raises(ModelError, match="n >= 4"):
        ZModel(n=3)
    with pytest.raises(ModelError, match="k >= 1"):
        ZModel(k=0)
    with pytest.raises(ModelError, match="distinct"):
        Arc(V(0, 1), V(0, 1))
    assert Arc(V(0, 3), V(0, 1)).p == V(0, 1)  # stored normalized
    other = Triangulation.make(ZModel.finite(6), {Arc(V(0, 0), V(0, 2))})
    with pytest.raises(ModelError, match="different models"):
        CVectorQuery(T, other, A)
    with pytest.raises(ModelError, match="not a diagonal of U"):
        CVectorQuery(T, T, Arc(V(0, 1), V(0, 3)))


def test_triangulation_keeps_its_memos():
    t = Triangulation(Z, T.core)  # not make, which would return T itself
    t._memo("probe")["x"] = 1
    assert t._memo("probe") == {"x": 1} and t == T and hash(t) == hash(T)
