"""``validate`` decides the faces at the core diagonals and the tail end
members only.  Checked here against the earlier walk, which visited
every member of the default window and the boundary edges at each block
hull +- 8: the two give the same report, witness included."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from infgon.triangulation import (Fountain, Leapfrog, Triangulation,
                                  UnattainedError, ValidationReport,
                                  _crossing_runs, validate)
from infgon.zmodel import Arc, ModelError, Vertex, ZModel

# The boundary edges the earlier walk visited beyond each block hull.
HULL_MARGIN = 8


def _face_walk(t: Triangulation) -> ValidationReport:
    """The earlier face check (iii), kept as a reference: both faces of
    every core diagonal (n-gon) or default window node (Blocks(k)),
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

    for d in list(t.core) if z.is_finite else t.window_nodes():
        bad = check_faces_of(d, [z.succ(d.p), z.succ(d.q)])
        if bad:
            return bad
    if z.is_finite:
        edges = (Arc(Vertex(0, i), Vertex(0, (i + 1) % z.n))
                 for i in range(z.n))
    else:
        hull = t._hull()
        edges = (Arc(Vertex(b, i), Vertex(b, i + 1)) for b in range(z.k)
                 for lo, hi in [hull.get(b, (0, 0))]
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
                or any(_crossing_runs(z, sf, a) for sf in t.subfamilies())):
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
