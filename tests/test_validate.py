"""``validate`` decides the faces at the core diagonals and the tail end
members only.  Checked here against the earlier walk, which visited
every member of the reference window and the boundary edges at each
block hull +- 8: the two give the same report, witness included.

This file also holds the references other test files share: the data
hull and the reference window over it, the dual quiver's acyclicity,
and the crossing quadruple, with the small fixtures (the pentagon fan,
the hexagon's inner triangle, one fountain, one leapfrog and the list
of an n-gon's diagonals) and the generators of Blocks(k)
triangulations."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from infgon.triangulation import (DualQuiver, Fountain, Leapfrog,
                                  Triangulation, UnattainedError,
                                  ValidationReport, _crossing_runs, validate)
from infgon.zmodel import Arc, ModelError, Vertex, ZModel

# The boundary edges the earlier walk visited beyond each block hull, and
# the tail members the reference window lists beyond the widest hull.
HULL_MARGIN = 8


def hull(t: Triangulation) -> dict[int, tuple[int, int]]:
    """Per block, the least and greatest vertex index the data names:
    core endpoints, tail bases and each tail subfamily's member at its
    finite end."""
    idx: dict[int, list[int]] = {}
    ends = [p for a in t.core for p in (a.p, a.q)]
    for sf in t.subfamilies:
        end = sf.near_end(sf.imin, sf.imax)
        ends += (sf.vertex(0, end), sf.vertex(1, end))
    for p in ends:
        if isinstance(p, Vertex):
            idx.setdefault(p.block, []).append(p.idx)
    return {b: (min(v), max(v)) for b, v in idx.items()}


def reference_nodes(t: Triangulation) -> list[Arc]:
    """``t.window_nodes`` over the widest block hull plus HULL_MARGIN
    members, so that the window reaches past the data on both sides of
    each limit point; on an n-gon, the core in key order."""
    spread = max((hi - lo for lo, hi in hull(t).values()), default=0)
    return t.window_nodes(spread + HULL_MARGIN)


def is_acyclic(q: DualQuiver) -> bool:
    """Whether the quiver has no oriented cycle: Kahn's algorithm,
    which removes sources until none is left, without recursion."""
    out: dict[Arc, list[Arc]] = {n: [] for n in q.nodes}
    indegree = dict.fromkeys(q.nodes, 0)
    for s, t in q.arrows:
        out[s].append(t)
        indegree[t] += 1
    sources = [n for n, d in indegree.items() if d == 0]
    removed = 0
    while sources:
        n = sources.pop()
        removed += 1
        for m in out[n]:
            indegree[m] -= 1
            if indegree[m] == 0:
                sources.append(m)
    return removed == len(indegree)


def crossing_quadruple(t: Triangulation, v: Arc):
    """For a diagonal v, the extremal vertices of the diagonals of T
    crossing v, by extremal queries: (i0, s0, i1, s1) with
    i0 <= s0 < v0 < i1 <= s1 < v1 and {i1, v0, s0}, {i0, v1, s1}
    triangles of T; None if v crosses nothing in T."""
    z = t.z
    if not z.is_diagonal(v):
        raise ModelError(f"{v!r} is not a diagonal")
    v0, v1 = v.p, v.q
    got = t.bridge_quadruple(z.succ(v1), z.pred(v0), z.succ(v0), z.pred(v1))
    if got is None:
        return None
    i0, s0, h0, i1, s1, h1 = got
    if (h0, h1) != (v0, v1):
        raise AssertionError(f"bridge triangles of {v!r} rest on {h0, h1}")
    return (i0, s0, i1, s1)


# -- shared fixtures ---------------------------------------------------------


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


def all_diagonals(z):
    return [z.arc(i, j) for i, j in combinations(range(z.n), 2)
            if z.is_diagonal(z.arc(i, j))]


def _face_walk(t: Triangulation) -> ValidationReport:
    """The earlier face check (iii), kept as a reference: both faces of
    every core diagonal (n-gon) or reference window node (Blocks(k)),
    then the inner face of every boundary edge of the n-gon, or of the
    edges at each block hull +- HULL_MARGIN."""
    z = t.z

    def check_faces_of(d: Arc, sides):
        for side in sides:
            try:
                a, h, b = t.triangle_on_side(d, side)
            except (UnattainedError, ModelError) as exc:
                return ValidationReport(False, "non-triangular face",
                                        (d, str(exc)))
            for sidearc in (Arc(a, h), Arc(h, b)):
                if not t.contains_or_edge(sidearc):
                    return ValidationReport(False, "non-triangular face",
                                            (d, sidearc))
        return None

    for d in list(t.core) if z.is_finite else reference_nodes(t):
        bad = check_faces_of(d, [z.succ(d.p), z.succ(d.q)])
        if bad:
            return bad
    if z.is_finite:
        edges = (Arc(Vertex(0, i), Vertex(0, (i + 1) % z.n))
                 for i in range(z.n))
    else:
        spans = hull(t)
        edges = (Arc(Vertex(b, i), Vertex(b, i + 1)) for b in range(z.k)
                 for lo, hi in [spans.get(b, (0, 0))]
                 for i in range(lo - HULL_MARGIN, hi + HULL_MARGIN))
    for e in edges:
        w = e.q if z.succ(e.p) == e.q else e.p
        bad = check_faces_of(e, [z.succ(w)])
        if bad:
            return bad
    return ValidationReport(True)


def reference(t: Triangulation) -> ValidationReport:
    """The report of the earlier ``validate``.  Its checks before the
    faces are the ones ``validate`` runs today, so a report naming one
    of them is taken as it is; otherwise the earlier face walk decides,
    on every core, also one of n - 3 diagonals."""
    rep = validate(t)
    if not rep.ok and rep.reason != "non-triangular face":
        return rep
    return _face_walk(t)


def _dissections(n: int):
    """Every set of pairwise non-crossing diagonals of the n-gon."""
    z = ZModel.finite(n)
    diags = [z.arc(i, j) for i, j in combinations(range(n), 2)
             if z.is_diagonal(z.arc(i, j))]

    def grow(start, chosen):
        yield chosen
        for i in range(start, len(diags)):
            d = diags[i]
            if not any(z.crosses(d, c) for c in chosen):
                yield from grow(i + 1, chosen + [d])

    for core in grow(0, []):
        yield Triangulation.make(z, core)


def test_same_report_on_every_dissection_of_small_polygons():
    count = 0
    for n in range(4, 9):
        for t in _dissections(n):
            assert validate(t) == reference(t), t.core
            count += 1
    assert count == 3 + 11 + 45 + 197 + 903  # little Schroeder numbers


# -- near-valid Blocks(k) documents -------------------------------------------


def _tail(rng: random.Random, k: int):
    """A fountain, with its base in any block, or a leapfrog, with its
    data within 4 of vertex 0."""
    right_from, left_to = rng.randint(0, 3), rng.randint(-3, 0)
    if rng.random() < 0.5:
        return Leapfrog(right_from, left_to)
    base = Vertex(rng.randrange(k), rng.randint(-4, 4))
    return Fountain(base, right_from, left_to)


def _filled(rng: random.Random, k: int) -> Triangulation:
    """Tails at every gap, drawn until their members are diagonals and
    cross no other tail, and a core filled greedily from the diagonals
    among indices -5..5 that cross nothing kept: a triangulation."""
    z = ZModel.blocks(k)
    while True:
        t = Triangulation.make(z, (), {g: _tail(rng, k) for g in range(k)})
        if validate(t).reason in (None, "non-triangular face"):
            break
    verts = [Vertex(b, i) for b in range(k) for i in range(-5, 6)]
    cands = [Arc(p, q) for p, q in combinations(verts, 2)
             if z.is_diagonal(Arc(p, q))]
    rng.shuffle(cands)
    core: list[Arc] = []
    for a in cands:
        if (any(z.crosses(a, c) for c in core) or t.tail_ref_of(a)
                or any(_crossing_runs(z, sf, a) for sf in t.subfamilies)):
            continue
        core.append(a)
    return Triangulation(z, frozenset(core), t.tails)


def _flipped(rng: random.Random, k: int) -> Triangulation:
    """``_filled``, then three flips of core diagonals drawn at random:
    still a triangulation, with cores the greedy fill does not reach (a
    flipped-in diagonal may join two blocks' data)."""
    t = _filled(rng, k)
    z = t.z
    for _ in range(3):
        if t.core:
            core = sorted(t.core, key=lambda a: (z.key(a.p), z.key(a.q)))
            t, _ = t.flip(rng.choice(core))
    return t


def _perturbed(rng: random.Random, t: Triangulation) -> Triangulation:
    """t with one core diagonal dropped or one tail bound moved by +-1."""
    z = t.z
    core = sorted(t.core, key=lambda a: (z.key(a.p), z.key(a.q)))
    tails = dict(t.tails)
    if core and rng.random() < 0.5:
        core.pop(rng.randrange(len(core)))
    else:
        g = rng.randrange(z.k)
        field = rng.choice(["right_from", "left_to"])
        tails[g] = tails[g]._replace(
            **{field: getattr(tails[g], field) + rng.choice((-1, 1))})
    return Triangulation.make(z, core, tails)


def _shift(t: Triangulation, m: int) -> Triangulation:
    """t with every vertex index moved by m."""
    def v(p):
        return Vertex(p.block, p.idx + m)

    tails = {}
    for g, tl in t.tails:
        if isinstance(tl, Fountain):
            tails[g] = Fountain(v(tl.base), tl.right_from + m, tl.left_to + m)
        else:
            tails[g] = Leapfrog(tl.right_from + m, tl.left_to + m)
    return Triangulation.make(t.z, [Arc(v(a.p), v(a.q)) for a in t.core],
                              tails)


def _near_valid(seed: int, k: int) -> list[Triangulation]:
    rng = random.Random(seed)
    t = _filled(rng, k)
    return [t, _perturbed(rng, t)]


NEAR_VALID = [t for k in (1, 2, 3) for seed in range(20)
              for t in _near_valid(seed, k)]


@pytest.mark.parametrize("m", [0, 100, 10 ** 6])
def test_same_report_on_near_valid_blocks(m):
    reasons = []
    for t0 in NEAR_VALID:
        t = _shift(t0, m)
        rep = validate(t)
        assert rep == reference(t), (t.core, t.tails)
        reasons.append(rep.reason)
    # every filled document is a triangulation, and the perturbed ones
    # mostly fail at a face
    assert reasons[::2] == [None] * 60
    assert reasons[1::2].count("non-triangular face") >= 30
