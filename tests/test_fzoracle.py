"""Matrix mutation oracle against the categorical computations."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon.cvector import CVectorQuery, cvector_eval
from infgon.fzoracle import (SeedMatrix, det, from_triangulation, identity,
                             mutate, run_flip_path)
from infgon.homindex import index
from infgon.triangulation import Triangulation, enumerate_triangulations
from infgon.zmodel import ModelError, ZModel


def pentagon_fan():
    z = ZModel.finite(5)
    return z, Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})


def random_flip_path(rng, z, t, max_len):
    cur = t
    flips = []
    for _ in range(rng.randrange(0, max_len + 1)):
        d = rng.choice(sorted(cur.core,
                              key=lambda a: (z.key(a.p), z.key(a.q))))
        flips.append(d)
        cur = cur.flip(d)[0]
    return flips


def test_initial_seed_pentagon():
    z, t = pentagon_fan()
    seed = from_triangulation(t)
    assert seed.b == ((0, 1), (-1, 0))
    assert seed.c == ((1, 0), (0, 1))
    assert seed.g == ((1, 0), (0, 1))
    assert seed.basis == (z.arc(0, 2), z.arc(0, 3))
    seed.check()


def test_initial_seed_square():
    z = ZModel.finite(4)
    seed = from_triangulation(Triangulation.make(z, {z.arc(0, 2)}))
    assert seed.b == ((0,),)


def test_initial_seed_hexagon_cycle():
    z = ZModel.finite(6)
    t = Triangulation.make(z, {z.arc(0, 2), z.arc(2, 4), z.arc(4, 0)})
    seed = from_triangulation(t)
    b = seed.b
    assert b == tuple(tuple(-x for x in col) for col in zip(*b))
    # a directed 3-cycle: each node has one in- and one out-neighbor
    assert sorted(sum(max(x, 0) for x in row) for row in b) == [1, 1, 1]
    assert sorted(sum(max(-x, 0) for x in row) for row in b) == [1, 1, 1]


def test_first_mutation_negates_c_row():
    z, t = pentagon_fan()
    seed = mutate(from_triangulation(t), 0)
    assert seed.c[0] == (-1, 0)
    seed.check()


def test_mutation_involution():
    rng = random.Random(5)
    for n in (5, 6, 7):
        z = ZModel.finite(n)
        tris = enumerate_triangulations(z)
        for _ in range(34):
            s0 = from_triangulation(rng.choice(tris))
            k = rng.randrange(s0.m)
            s2 = mutate(mutate(s0, k), k)
            assert s2.b == s0.b
            assert s2.c == s0.c
            assert s2.g == s0.g


def test_mutate_bad_index():
    _, t = pentagon_fan()
    with pytest.raises(ModelError):
        mutate(from_triangulation(t), 2)


def test_flip_path_labels():
    z, t = pentagon_fan()
    # basis order: {0,2}, {0,3}; {0,2} flips to {1,3} at node 0, and
    # {1,3} flips back to {0,2} at node 0 again
    s1, u1 = run_flip_path(t, [z.arc(0, 2)])
    assert s1.labels == (z.arc(1, 3), z.arc(0, 3))
    assert s1.c == mutate(from_triangulation(t), 0).c
    s2, u2 = run_flip_path(t, [z.arc(0, 2), z.arc(1, 3)])
    assert s2.labels == (z.arc(0, 2), z.arc(0, 3))
    assert s2.c == mutate(s1, 0).c
    assert u2 == t
    with pytest.raises(ModelError):
        run_flip_path(t, [z.arc(1, 4)])


def test_run_flip_path_reaches_triangulation():
    z, t = pentagon_fan()
    seed, u_tri = run_flip_path(t, [z.arc(0, 2), z.arc(0, 3)])
    assert u_tri.core == frozenset({z.arc(1, 3), z.arc(1, 4)})
    assert set(seed.labels) == set(u_tri.core)


def _agrees(t, flips):
    seed, u_tri = run_flip_path(t, flips)
    seed.check()
    for j, u in enumerate(seed.labels):
        q = CVectorQuery(t, u_tri, u)
        if seed.c[j] != tuple(cvector_eval(q, d) for d in seed.basis):
            return False
        kv = index(t, u)
        if seed.g[j] != tuple(kv.eval(d) for d in seed.basis):
            return False
    return seed.pairing_matrix() == identity(seed.m)


def test_central_cross_check_pentagon():
    z, t = pentagon_fan()
    assert _agrees(t, [z.arc(0, 2), z.arc(0, 3)])


def test_oracle_agreement_random_paths():
    rng = random.Random(17)
    for n in (5, 6, 7):
        z = ZModel.finite(n)
        tris = enumerate_triangulations(z)
        for _ in range(25):
            t = rng.choice(tris)
            flips = random_flip_path(rng, z, t, 8)
            assert _agrees(t, flips), (n, flips)


def test_pairing_identity_along_path():
    rng = random.Random(29)
    z = ZModel.finite(7)
    tris = enumerate_triangulations(z)
    for _ in range(20):
        t = rng.choice(tris)
        seed, flips = from_triangulation(t), []
        for _ in range(6):
            flips.append(rng.choice(seed.labels))
            seed, _ = run_flip_path(t, flips)
            seed.check()
            assert seed.pairing_matrix() == identity(seed.m)


def test_random_flip_path_draws_like_the_explicit_loop():
    # the random form: one randrange for the length, then one choice
    # among the current labels before each flip
    z = ZModel.finite(7)
    t = enumerate_triangulations(z)[3]
    for s in range(20):
        rng, ref = random.Random(s), random.Random(s)
        seed, cur = run_flip_path(t, rng=rng, max_len=8)
        labels = list(from_triangulation(t).labels)
        flips, cur_ref = [], t
        for _ in range(ref.randrange(0, 9)):
            d = ref.choice(labels)
            cur_ref, labels[labels.index(d)] = cur_ref.flip(d)
            flips.append(d)
        assert rng.getstate() == ref.getstate()
        assert cur == cur_ref and list(seed.labels) == labels
        explicit, _ = run_flip_path(t, flips)
        assert (explicit.b, explicit.c, explicit.g) == (seed.b, seed.c,
                                                        seed.g)


# ---------------------------------------------------------------------------
# The exact determinant.


def cofactor_det(a):
    if not a:
        return 1
    return sum((-1) ** j * a[0][j]
               * cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


@st.composite
def int_matrices(draw):
    n = draw(st.integers(0, 5))
    entries = draw(st.sampled_from([st.integers(-2, 2),
                                    st.integers(-10 ** 12, 10 ** 12)]))
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):  # singular: a row a multiple
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        a[i] = [c * x for x in a[j]]
    if n and draw(st.booleans()):  # zero leading pivot
        a[0][0] = 0
    return a


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_det_equals_cofactor_expansion(a):
    assert det(a) == cofactor_det(a)


def test_det_pivot_swaps_and_singular_cases():
    assert det([]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    # the second pivot is zero after one elimination step
    assert det([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det([[1, 2]])


def test_det_exact_where_floats_fail():
    # (1e9 + 1)(1e9 - 1) - 1e18 = -1, but the float products agree to
    # the last bit and a float determinant reads 0
    a = [[10 ** 9 + 1, 10 ** 9], [10 ** 9, 10 ** 9 - 1]]
    assert det(a) == -1
    assert float(a[0][0]) * a[1][1] - float(a[0][1]) * a[1][0] == 0.0


def test_check_rejects_non_unimodular_c():
    z, t = pentagon_fan()
    seed = from_triangulation(t)
    bad = SeedMatrix(seed.b, ((2, 0), (0, 1)), seed.g, seed.labels,
                     seed.basis)
    assert det(bad.c) == 2
    with pytest.raises(ModelError, match="C-matrix is not unimodular"):
        bad.check()
