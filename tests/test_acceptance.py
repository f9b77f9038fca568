"""Acceptance suite: nine exact, property-based criteria.

Each test prints one ``criterion N: PASS``/``FAIL`` line (visible with
``pytest -s`` or in captured output on failure).
"""

from __future__ import annotations

import functools
import pathlib
import random
import time
from itertools import combinations

from infgon.cvector import (CVectorQuery, cvector_eval, cvector_full,
                            dimension_vector, realize_dimension_vector)
from infgon.decomposition import (YExt, add_vectors, crossing_order,
                                  delta_plus, in_X, maximal_pairs, psi,
                                  root_of_arc, root_system_label)
from infgon.fzoracle import det, run_flip_path
from infgon.homindex import CoVector, check_duality, index, zigzag
from infgon.render import render_svg
from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  enumerate_triangulations, validate)
from infgon.zmodel import Arc, Limit, Vertex, ZModel, suspend

GOLDEN = pathlib.Path(__file__).parent / "golden"


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL")
                raise
            print(f"criterion {num}: PASS")
        return wrapper
    return deco


def all_diagonals(z):
    return [z.arc(i, j) for i, j in combinations(range(z.n), 2)
            if z.is_diagonal(z.arc(i, j))]


def dim_set(t):
    """Nonzero dimension vectors of all diagonals (the set D)."""
    out = set()
    for v in all_diagonals(t.z):
        dv = dimension_vector(t, v)
        if not dv.is_zero():
            out.add(dv)
    return out


def c_sets(t, tris):
    """(C, C+) over all pairs (u, U): all signed c-vectors and the
    positive ones."""
    call, cplus = set(), set()
    for u_tri in tris:
        for u in u_tri.core:
            sign, _, cov = cvector_full(CVectorQuery(t, u_tri, u))
            call.add(cov)
            if sign > 0:
                cplus.add(cov)
            else:
                assert cov.is_negative()
    return call, cplus


def fountain_fixture():
    z = ZModel.blocks(1)
    return z, Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})


def second_fountain():
    z = ZModel.blocks(1)
    return Triangulation.make(z, set(), {0: Fountain(Vertex(0, 1), 3, -1)})


def leapfrog_fixture():
    """A leapfrog tail plus a finite core filling the pentagon
    -2,-1,0,1,2 under its first member."""
    z = ZModel.blocks(1)
    t = Triangulation.make(z, {z.arc(-2, 0), z.arc(0, 2)},
                           {0: Leapfrog(2, -2)})
    return z, t


# ---------------------------------------------------------------------------


@criterion(1)
def test_criterion_1_pentagon_exhaustive():
    start = time.perf_counter()
    z = ZModel.finite(5)
    tris = enumerate_triangulations(z)
    assert len(tris) == 5
    for t in tris:
        call, cplus = c_sets(t, tris)
        for c in cplus:
            assert c.is_positive()
        d = dim_set(t)
        assert cplus == d
        assert len(cplus) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"pentagon sweep took {elapsed:.2f}s"


@criterion(2)
def test_criterion_2_hexagon_heptagon_exhaustive():
    start = time.perf_counter()
    for n, count in ((6, 14), (7, 42)):
        z = ZModel.finite(n)
        tris = enumerate_triangulations(z)
        assert len(tris) == count
        for t in tris:
            call, cplus = c_sets(t, tris)
            assert cplus == dim_set(t)
            neg = {-c for c in cplus}
            assert call == cplus | neg
            assert not (cplus & neg)
        basis = {t: sorted(t.core, key=lambda a: (z.key(a.p), z.key(a.q)))
                 for t in tris}
        for t in tris:
            for u_tri in tris:
                rep = check_duality(t, u_tri, basis[t], basis[u_tri])
                assert rep.ok, rep.failures[:1]
                g = [[index(t, u).eval(d) for d in basis[t]]
                     for u in basis[u_tri]]
                assert det(g) in (1, -1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"hexagon+heptagon sweep took {elapsed:.2f}s"


@criterion(3)
def test_criterion_3_oracle_agreement():
    rng = random.Random(101)
    mismatches = 0
    for n in (5, 6, 7, 8):
        z = ZModel.finite(n)
        tris = enumerate_triangulations(z)
        for _ in range(100):
            t = rng.choice(tris)
            seed, cur = run_flip_path(t, rng=rng, max_len=10)
            for j, u in enumerate(seed.labels):
                q = CVectorQuery(t, cur, u)
                crow = tuple(cvector_eval(q, d) for d in seed.basis)
                kv = index(t, u)
                grow = tuple(kv.eval(d) for d in seed.basis)
                if seed.c[j] != crow or seed.g[j] != grow:
                    mismatches += 1
    assert mismatches == 0


@criterion(4)
def test_criterion_4_maximal_pairs_and_borel():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(2, 4), z.arc(4, 0)})
    pairs = maximal_pairs(t)
    want = {frozenset({z.v(1), z.v(3)}), frozenset({z.v(3), z.v(5)}),
            frozenset({z.v(1), z.v(5)})}
    assert pairs == want
    assert len(dim_set(t)) == 6
    for pair in pairs:
        e, f = sorted(pair, key=z.key)
        members = {}
        for v in all_diagonals(z):
            dv = dimension_vector(t, v)
            if not dv.is_zero() and in_X(t, e, f, dv):
                members[dv] = v
        assert len(members) == 3
        roots = {root_of_arc(t, e, f, v) for v in members.values()}
        assert len(roots) == 3
        y = crossing_order(t, e, f)
        assert roots == set(delta_plus(YExt(y)))

    z5 = ZModel.finite(5)
    fan = Triangulation.make(z5, {z5.arc(0, 2), z5.arc(0, 3)})
    assert len(maximal_pairs(fan)) == 1


@criterion(5)
def test_criterion_5_fountain():
    z, t = fountain_fixture()
    assert validate(t).ok
    assert index(t, z.arc(1, -1)) == CoVector(t, {z.arc(0, 2): -1})

    u = second_fountain()
    window_t = [z.arc(0, n) for n in range(2, 7)] \
        + [z.arc(0, -n) for n in range(2, 7)]
    window_u = [z.arc(1, 1 + n) for n in range(2, 7)] \
        + [z.arc(1, 1 - n) for n in range(2, 7)]
    assert check_duality(t, u, window_t, window_u).ok

    assert maximal_pairs(t) == {frozenset({z.v(1), z.v(-1)})}

    y = crossing_order(t, z.v(1), z.v(-1))
    assert str(y.descriptor()) == "omega + omega*"
    ye = YExt(y)
    assert ye.has_neg_inf
    assert "sl_infinity" in root_system_label(y)

    members = y.first(8) + y.last(8)
    rng = random.Random(55)
    checked = 0
    while checked < 50:
        a, b, c = (rng.choice(members) for _ in range(3))
        if not (y.less(a, b) or a == b) or not y.less(b, c):
            continue
        lhs = psi(y, a, c).vector()
        rhs = add_vectors(psi(y, a, b).vector(),
                          psi(y, y.succ_in(b), c).vector())
        assert lhs == rhs
        checked += 1


@criterion(6)
def test_criterion_6_leapfrog():
    z, t = leapfrog_fixture()
    assert validate(t).ok

    pairs = maximal_pairs(t)
    ear_limit = [p for p in pairs
                 if any(isinstance(x, Limit) for x in p)
                 and any(isinstance(x, Vertex) for x in p)]
    assert ear_limit, pairs
    ears = t.ears()
    for p in ear_limit:
        v = next(x for x in p if isinstance(x, Vertex))
        assert v in ears

    window = t.window_nodes(8)
    for d in window:
        assert index(t, suspend(z, d)) == CoVector(t, {d: -1})

    z2 = ZModel.blocks(1)
    u = Triangulation.make(z2, set(), {0: Leapfrog(1, -1)})
    assert check_duality(t, u, t.window_nodes(6), u.window_nodes(6)).ok


@criterion(7)
def test_criterion_7_realization_round_trip():
    failures = 0
    for n in range(5, 10):
        z = ZModel.finite(n)
        for t in enumerate_triangulations(z):
            for v in all_diagonals(z):
                dv = dimension_vector(t, v)
                if dv.is_zero():
                    continue
                u_tri, u = realize_dimension_vector(t, v)
                sign, _, cov = cvector_full(CVectorQuery(t, u_tri, u))
                if sign != 1 or cov != dv:
                    failures += 1
    assert failures == 0


def _check_zigzag_structure(t, e, f):
    z = t.z
    path = zigzag(t, e, f).vertices
    assert path[0] == e and path[-1] == f
    assert len(path) % 2 == 0
    # diagonal steps belong to T; edge steps are boundary edges
    for a, b in zip(path, path[1:]):
        step = Arc(a, b)
        assert z.is_edge(step) or t.contains(step)
    # odd entries march monotonically from e toward f on one side;
    # even entries march monotonically from e backward on the other
    odd = path[1::2]
    for v in odd[:-1]:
        assert z.cyclically_between(e, v, f)
    for a, b in zip(odd, odd[1:]):
        assert z.rel(a, e) < z.rel(b, e)
    even = path[0::2]
    for v in even[1:]:
        assert z.cyclically_between(f, v, e)
    for a, b in zip(even, even[1:]):
        assert z.rel(b, f) < z.rel(a, f)
    # extremality of every step, re-queried directly
    assert path[1] == t.sup_connected(e, z.succ(e), f, diagonals_only=False)
    for m in range(2, len(path)):
        if m % 2 == 0:
            got = t.inf_connected(path[m - 1], z.succ(f),
                                  z.pred(path[m - 2]), diagonals_only=True)
        else:
            got = t.sup_connected(path[m - 1], z.succ(path[m - 2]), f,
                                  diagonals_only=False)
        assert got == path[m]


@criterion(8)
def test_criterion_8_zigzag_structural_suite():
    rng = random.Random(808)
    finite_pool = []
    for n in (5, 6, 7):
        z = ZModel.finite(n)
        finite_pool.extend((z, t) for t in enumerate_triangulations(z))
    zb, tf = fountain_fixture()
    zl, tl = leapfrog_fixture()
    blocks_pool = [(zb, tf), (zl, tl)]

    for z, t in finite_pool + blocks_pool:
        basis = t.core if z.is_finite else t.window_nodes(6)
        for d in basis:
            assert index(t, suspend(z, d)) == CoVector(t, {d: -1})

    for _ in range(10_000):
        if rng.random() < 0.7:
            z, t = rng.choice(finite_pool)
            i, j = rng.sample(range(z.n), 2)
            e, f = z.v(i), z.v(j)
        else:
            z, t = rng.choice(blocks_pool)
            i, j = rng.sample(range(-7, 8), 2)
            e, f = Vertex(0, i), Vertex(0, j)
        _check_zigzag_structure(t, e, f)


@criterion(9)
def test_criterion_9_rendering_determinism():
    from test_render import FIGURES
    for name, fig in sorted(FIGURES.items()):
        got = render_svg(fig())
        assert got == (GOLDEN / f"{name}.svg").read_text()
        assert got == render_svg(fig())
