"""Triangulations: finite core plus tail schemas at limit points.

A triangulation of a Blocks model is described by finitely many core
diagonals together with one tail per limit point.  A tail is either a
fountain (all diagonals from one base vertex, converging to the limit
from both sides) or a leapfrog (diagonals alternating across the limit
point).

Queries over the infinite tail families are answered exactly.  A tail
splits into subfamilies whose members have endpoints (b, o + s*i),
affine in one index i with slope s in {-1, 0, 1}.  A moving endpoint
passes one vertex per index through its block, so every predicate on
members is read off index runs (maximal index intervals) solved in
closed form against the fixed points it names: where an endpoint lies
strictly inside an interval (``_sides``), where it is a given vertex
(``_SubFamily._match``), and unions and intersections of those
(``_union``, ``_and``).  Nothing is sampled, and nothing is placed at
vertex 0, where the position keys start.  A window of tail members is
always given by the caller, counted from each subfamily's finite end,
so shifting every index by m shifts every answer by m, for the same
work.
"""

from __future__ import annotations

import bisect
import weakref
from functools import cached_property
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence, Union

from .zmodel import (Arc, ClosurePoint, Frozen, Limit, ModelError, Vertex,
                     ZModel, keys_in_closed, new_vertex)


class UnattainedError(RuntimeError):
    """A requested sup/inf exists only as a limit point.

    This cannot happen for the queries the theory performs on valid
    triangulations; reaching it signals invalid input.
    """


class Fountain(NamedTuple):
    """All diagonals {base, (b, i)} for i >= right_from and
    {base, (b+1 mod k, j)} for j <= left_to, at limit point L(b)."""

    base: Vertex
    right_from: int
    left_to: int


class Leapfrog(NamedTuple):
    """Diagonals {(b, right_from+m), (b+1, left_to-m)} and
    {(b+1, left_to-m), (b, right_from+m+1)} for all m >= 0, at L(b)."""

    right_from: int
    left_to: int


Tail = Union[Fountain, Leapfrog]


class ValidationReport(NamedTuple):
    ok: bool
    reason: str | None = None
    witness: object | None = None


class DualQuiver(NamedTuple):
    nodes: tuple[Arc, ...]
    arrows: tuple[tuple[Arc, Arc], ...]


# ---------------------------------------------------------------------------
# Tail sub-families: arcs whose endpoints are affine in a single index.


class _SubFamily(Frozen):
    """Arcs member(i) = {(b1, o1 + s1*i), (b2, o2 + s2*i)}, imin <= i <= imax
    (None bound = unbounded in that direction); e1 and e2 are the
    endpoints' (block, offset, slope).  Slotted: member keys read e1
    and e2 for every index they build."""

    __slots__ = _fields = ("gap", "sub", "imin", "imax", "e1", "e2")
    _values = attrgetter(*_fields)

    def vertex(self, which: int, i: int) -> Vertex:
        b, o, s = self.e1 if which == 0 else self.e2
        return new_vertex((b, o + s * i))

    def key(self, z: ZModel, which: int, i: int) -> tuple[int, int, int]:
        """``z.key(self.vertex(which, i))`` by arithmetic, building no
        vertex; a block outside the model raises z.key's ModelError."""
        b, o, s = self.e2 if which else self.e1
        idx = o + s * i
        k = z.k
        if k is None or not 0 <= b < k:
            return z.key(Vertex(b, idx))
        return (k, 0, idx) if b == 0 and idx < 0 else (b, 0, idx)

    def member(self, i: int) -> Arc:
        return Arc(self.vertex(0, i), self.vertex(1, i))

    def in_range(self, i: int) -> bool:
        return ((self.imin is None or self.imin <= i)
                and (self.imax is None or i <= self.imax))

    @staticmethod
    def _match(ep: tuple[int, int, int], v: Vertex):
        """Index forced by one endpoint at the point v: an int, "any"
        for a matching constant endpoint, or None for a mismatch."""
        b, o, s = ep
        if v.__class__ is not Vertex or v.block != b:
            return None
        if s == 0:
            return "any" if v.idx == o else None
        return (v.idx - o) * s

    def near_end(self, lo: int | None, hi: int | None) -> int:
        """The end of run (lo, hi) nearest the range's finite end."""
        return lo if self.imin is not None else hi

    def index_of(self, a: Arc) -> int | None:
        """The family index of the member equal to arc a, if any."""
        if not (isinstance(a.p, Vertex) and isinstance(a.q, Vertex)):
            return None
        for (u, w) in ((a.p, a.q), (a.q, a.p)):
            i, j = self._match(self.e1, u), self._match(self.e2, w)
            if i is None or j is None or i == j == "any":
                continue
            idx = j if i == "any" else i
            if (j == "any" or j == idx) and self.in_range(idx):
                return idx
        return None


def _subfamilies_of_tail(z: ZModel, gap: int, tail: Tail) -> list[_SubFamily]:
    g1 = (gap + 1) % z.k
    if isinstance(tail, Fountain):
        base = (tail.base.block, tail.base.idx, 0)
        return [
            _SubFamily(gap, "right", tail.right_from, None, base, (gap, 0, 1)),
            _SubFamily(gap, "left", None, tail.left_to, base, (g1, 0, 1)),
        ]
    return [
        _SubFamily(gap, "a", 0, None, (gap, tail.right_from, 1),
                   (g1, tail.left_to, -1)),
        _SubFamily(gap, "b", 0, None, (g1, tail.left_to, -1),
                   (gap, tail.right_from + 1, 1)),
    ]


# ---------------------------------------------------------------------------


class Triangulation(Frozen):
    _fields = ("z", "core", "tails")  # and a __dict__ for the memos
    _values = attrgetter(*_fields)
    _live = weakref.WeakValueDictionary()  # make's instances, by fields

    def __init__(self, z: ZModel, core: frozenset[Arc],
                 tails: tuple[tuple[int, Tail], ...] = ()) -> None:
        object.__setattr__(self, "z", z)  # not Frozen's loop: built per flip
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "tails", tails)

    @staticmethod
    def make(z: ZModel, core: Iterable[Arc], tails: dict[int, Tail] | None = None
             ) -> "Triangulation":
        """The live triangulation equal to the one asked for, else a new
        one, held weakly, that later calls share with its memos.  The
        constructor builds an unshared, cold instance."""
        key = (z, frozenset(core), tuple(sorted((tails or {}).items())))
        if (t := Triangulation._live.get(key)) is None:
            t = Triangulation._live[key] = Triangulation(*key)
        return t

    def _memo(self, name: str) -> dict:
        """The memo table ``name`` kept on this triangulation, empty on
        first use.  The fields are frozen, so an answer depends on the
        value only, shared by every caller of ``make``.  Store only
        answers nobody mutates, never a failure, and nothing that refers
        to the triangulation but weakly: reference counting frees both."""
        try:
            return self.__dict__["_memo_" + name]
        except KeyError:  # first use: the one time a table is built
            return self.__dict__.setdefault("_memo_" + name, {})

    @cached_property
    def subfamilies(self) -> tuple[_SubFamily, ...]:
        return tuple(sf for g, tail in self.tails
                     for sf in _subfamilies_of_tail(self.z, g, tail))

    # -- membership ---------------------------------------------------

    def contains(self, a: Arc) -> bool:
        return a in self.core or self.tail_ref_of(a) is not None

    def tail_ref_of(self, a: Arc) -> tuple[int, str, int] | None:
        if not self.tails:
            return None
        memo = self._memo("tail_ref")
        if a not in memo:
            memo[a] = next(((sf.gap, sf.sub, i) for sf in self.subfamilies
                            for i in (sf.index_of(a),) if i is not None), None)
        return memo[a]

    def contains_or_edge(self, a: Arc) -> bool:
        return self.z.is_edge(a) or self.contains(a)

    @cached_property
    def core_keys(self) -> dict[Arc, tuple | None]:
        """Each core arc mapped to its endpoint keys (key(p), key(q)),
        checked once as a diagonal: None when it is not one.  Do not
        mutate."""
        z, out = self.z, {}
        for arc in self.core:
            keys = z.key(arc.p), z.key(arc.q)  # ModelError outside z
            out[arc] = keys if z.is_diagonal(arc) else None
        return out

    @cached_property
    def neighbours(self) -> dict[ClosurePoint, tuple[tuple, tuple]]:
        """Each endpoint of a core diagonal mapped to (keys, vertices):
        the vertices q joined to it by a core diagonal and their keys,
        both sorted by key.  Do not mutate."""
        z, acc = self.z, {}
        for arc, keys in self.core_keys.items():
            kp, kq = keys or (z.key(arc.p), z.key(arc.q))
            for (p, q, k) in ((arc.p, arc.q, kq), (arc.q, arc.p, kp)):
                if q.__class__ is Vertex:  # a limit point joins nothing
                    acc.setdefault(p, []).append((k, q))
        return {p: tuple(zip(*sorted(qs))) for p, qs in acc.items()}

    # -- the exact extremal engine ------------------------------------

    def _extremal_connected(self, want_min: bool,
                            a_lo: Vertex, a_hi: Vertex,
                            b_lo: ClosurePoint, b_hi: ClosurePoint,
                            edges_allowed: bool) -> Vertex | None:
        """inf (or sup) over A = [a_lo, a_hi] of vertices joined to some
        vertex of B = [b_lo, b_hi] by a diagonal of T, or an edge when
        edges_allowed; edges are allowed only for a one-point B.
        Ordering is position along A from a_lo: the key k rotated to
        start there, (k < key(a_lo), k).

        Why one index decides a tail when B is one vertex x.  Member(i)
        joins x exactly when one of its endpoints (b, o + s*i) is x.
        With s != 0 that endpoint moves one vertex per index inside
        block b, so it is x at the one index (x.idx - o)*s, or at none
        if x lies in another block (``_SubFamily._match``).  With s == 0
        it is x at every index or at none; at every index, the members
        are read off runs as for an interval B: endpoint wa in A and the
        other in B (``_within``).  A excludes x (else ModelError) and an
        interval B (``bridge_quadruple``), so the two are apart.  A
        circle neighbour of x in A is an end of A, and the core
        diagonals at x come from bisecting ``neighbours``."""
        z = self.z
        key = z.key
        k_alo, k_ahi = key(a_lo), key(a_hi)
        k_blo = key(b_lo)
        k_bhi = k_blo if b_hi is b_lo else key(b_hi)
        point = k_blo == k_bhi and b_lo.__class__ is Vertex
        cands: list[tuple[Vertex, tuple]] = []  # (vertex, key), kept in A
        limits: list[tuple] = []  # limits approached on the wanted side

        if point:
            if keys_in_closed(k_alo, k_blo, k_ahi):
                raise ModelError("interval [lo, hi] must not contain x")
            keys, verts = self.neighbours.get(b_lo, ((), ()))
            if keys:
                # A is a prefix of the sorted keys rotated to start at
                # key(a_lo): its first member is the first key from
                # there, its last the last key up to key(a_hi)
                i = (bisect.bisect_left(keys, k_alo) % len(keys) if want_min
                     else bisect.bisect_right(keys, k_ahi) - 1)
                cands.append((verts[i], keys[i]))
            if edges_allowed:
                # succ(x) in A is a_lo, and pred(x) in A is a_hi
                if a_lo == z.succ(b_lo):
                    cands.append((a_lo, k_alo))
                if a_hi == z.pred(b_lo):
                    cands.append((a_hi, k_ahi))
        else:
            for w, (keys, verts) in self.neighbours.items():
                if keys_in_closed(k_blo, key(w), k_bhi):
                    cands += zip(verts, keys)

        for sf in self.tails and self.subfamilies:
            for wa in (0, 1):
                i = sf._match(sf.e1 if wa else sf.e2, b_lo) if point else "any"
                if i is None or (i != "any" and not sf.in_range(i)):
                    continue
                if i != "any":
                    if (ka := sf.key(z, wa, i)) != k_blo:
                        cands.append((sf.vertex(wa, i), ka))
                    continue
                blk, _, slope = sf.e2 if wa else sf.e1
                for lo, hi in _clip(sf, _and(
                        _within(z, sf, wa, a_lo, a_hi, k_alo, k_ahi),
                        _within(z, sf, 1 - wa, b_lo, b_hi, k_blo, k_bhi))):
                    # along a run va moves monotonically inside A, so
                    # its extremes sit at the run's ends
                    for end, up in ((lo, False), (hi, True)):
                        if end is not None or slope == 0:
                            cands.append((sf.vertex(wa, end or 0),
                                          sf.key(z, wa, end or 0)))
                        elif ((slope > 0) == up) != want_min:
                            lim = blk - 1 if want_min else blk
                            limits.append(z.rel(Limit(lim % z.k), a_lo))

        top = (k_ahi < k_alo, k_ahi)  # A's far end, rotated
        feas: dict[Vertex, tuple] = {}  # candidate in A -> its rotated key
        for v, kv in cands:
            if (r := (kv < k_alo, kv)) <= top:
                feas[v] = r
        if not feas:
            if limits:
                raise UnattainedError(
                    "candidate set accumulates at a limit point")
            return None
        pick = min if want_min else max
        best = pick(feas, key=feas.get)
        if limits and pick(*limits, feas[best]) != feas[best]:
            raise UnattainedError(("infimum" if want_min else "supremum")
                                  + " approaches a limit point, not attained")
        return best

    # -- public interval queries --------------------------------------

    def _one_point(self, want_min: bool, x: Vertex, lo: Vertex, hi: Vertex,
                   diagonals_only: bool) -> Vertex | None:
        """inf_connected (want_min) or sup_connected: a Vertex argument
        is checked by its key, anything else coerced by ``z.v``."""
        if not x.__class__ is lo.__class__ is hi.__class__ is Vertex:
            z = self.z
            x, lo, hi = z.v(x), z.v(lo), z.v(hi)
        return self._extremal_connected(want_min, lo, hi, x, x,
                                        not diagonals_only)

    def sup_connected(self, x: Vertex, lo: Vertex, hi: Vertex,
                      diagonals_only: bool = False) -> Vertex | None:
        return self._one_point(False, x, lo, hi, diagonals_only)

    def inf_connected(self, x: Vertex, lo: Vertex, hi: Vertex,
                      diagonals_only: bool = False) -> Vertex | None:
        return self._one_point(True, x, lo, hi, diagonals_only)

    # -- adjacent triangles -------------------------------------------

    def third_vertex(self, d: Arc, side: ClosurePoint) -> Vertex:
        """The vertex h completing d to a triangle of T on the side of d
        that contains the closure point ``side``; memoized per oriented
        pair (u, w), the side [u, w] counterclockwise."""
        z = self.z
        u, w = d.p, d.q
        if not (isinstance(u, Vertex) and isinstance(w, Vertex)):
            raise ModelError("third_vertex needs vertex endpoints")
        ku, ks, kw = z.key(u), z.key(side), z.key(w)
        if ks == ku or ks == kw:
            raise ModelError("side marker must not be an endpoint of d")
        if not keys_in_closed(ku, ks, kw):
            u, w = w, u
        # [u, w] counterclockwise holds side strictly inside: not an edge
        memo = self._memo("third_vertex")
        if (h := memo.get((u, w))) is None:
            h = self._extremal_connected(True, z.succ(u), z.pred(w), w, w,
                                         True)
            if h is None:
                raise UnattainedError(f"no triangle of T adjacent to {d!r} "
                                      "on the requested side")
            memo[u, w] = h
        return h

    def triangle_on_side(self, d: Arc, side: ClosurePoint
                         ) -> tuple[Vertex, Vertex, Vertex]:
        """Counterclockwise-ordered triangle (u, h, w) of T on a side of d."""
        z = self.z
        u, w = d.p, d.q
        if not z.strictly_between(u, side, w):
            u, w = w, u
        h = self.third_vertex(d, side)
        return (u, h, w)

    # -- bridge and crossing quadruples --------------------------------

    def bridge_quadruple(self, a0: Vertex, b0: Vertex, a1: Vertex, b1: Vertex):
        """Extremal connecting configuration between [a0,b0] and [a1,b1].

        Returns (i0, s0, h0, i1, s1, h1) with {i1, h0, s0} and
        {i0, h1, s1} triangles of T, or None when no diagonal of T
        connects the two intervals."""
        z = self.z
        a0, b0, a1, b1 = (p if p.__class__ is Vertex else z.v(p)
                          for p in (a0, b0, a1, b1))
        k0, *ks = map(z.key, (a0, b0, a1, b1))  # keys check a Vertex
        rb0, ra1, rb1 = ((k < k0, k) for k in ks)  # rotated to start at a0
        if not rb0 < ra1 <= rb1:
            raise ModelError("need a0 <= b0 < a1 <= b1 < a0 cyclically")
        if z.succ(b0) == a1 or z.succ(b1) == a0:
            raise ModelError("intervals must be separated by a vertex "
                             "on both sides")
        i0 = self._extremal_connected(True, a0, b0, a1, b1, False)
        if i0 is None:
            return None
        s1 = self._extremal_connected(False, a1, b1, i0, i0, False)
        i1 = self._extremal_connected(True, a1, b1, a0, b0, False)
        s0 = self._extremal_connected(False, a0, b0, i1, i1, False)
        h0 = self.third_vertex(Arc(s0, i1), z.succ(s0))
        h1 = self.third_vertex(Arc(s1, i0), z.succ(s1))
        return (i0, s0, h0, i1, s1, h1)

    # -- ears ----------------------------------------------------------

    def ears(self) -> set[Vertex]:
        z = self.z
        cands: set[Vertex] = set()
        for a in self.core:
            for (u, w) in ((a.p, a.q), (a.q, a.p)):
                if z.succ(z.succ(u)) == w:
                    cands.add(z.succ(u))
        for sf in self.subfamilies:
            # endpoints 2 apart in one block; their slopes differ: a point
            for i, _ in _apart(sf, 2, 2) + _apart(sf, -2, -2):
                a = sf.member(i)
                for (u, w) in ((a.p, a.q), (a.q, a.p)):
                    if z.succ(z.succ(u)) == w:
                        cands.add(z.succ(u))
        return {e for e in cands
                if self.contains(Arc(z.pred(e), z.succ(e)))}

    # -- flip ----------------------------------------------------------

    def exchange_partner(self, d: Arc) -> Arc:
        """The arc that replaces the diagonal d of T in a flip (the other
        diagonal of d's two triangles); tail members have one too."""
        z = self.z
        return Arc(self.third_vertex(d, z.succ(d.p)),
                   self.third_vertex(d, z.succ(d.q)))

    def flip(self, d: Arc) -> tuple["Triangulation", Arc]:
        if d not in self.core:
            raise ModelError("only core diagonals can be flipped")
        dstar = self.exchange_partner(d)
        new_core = (self.core - {d}) | {dstar}
        return (Triangulation(self.z, new_core, self.tails), dstar)

    # -- dual quiver ----------------------------------------------------

    def window_nodes(self, w: int) -> list[Arc]:
        """Core diagonals plus, for each tail subfamily, the members at
        its finite end and the next ``w`` indices, in key order."""
        nodes = list(self.core)
        for sf in self.subfamilies:
            if sf.imin is not None:
                rng = range(sf.imin, sf.imin + w + 1)
            else:
                rng = range(sf.imax - w, sf.imax + 1)
            nodes.extend(sf.member(i) for i in rng)
        return list(dict.fromkeys(sorted(nodes, key=self.z.arc_key)))

    def arcs_within(self, window: tuple[int, int]) -> list[Arc]:
        """In key order, every arc of a finite T; on a Blocks model, the
        arcs whose vertex endpoints all have indices in the window
        (lo, hi), as ``ZModel.vertices(window)`` lists the vertices.  A
        subfamily's members there form one index run: an endpoint o + s*i
        with s = +-1 lies in [lo, hi] for one run of i, and a constant
        one for every i or none."""
        z = self.z
        if z.is_finite:
            return sorted(self.core, key=z.arc_key)
        lo, hi = window
        arcs = [a for a in self.core if all(
            lo <= p.idx <= hi for p in a.endpoints() if isinstance(p, Vertex))]
        for sf in self.subfamilies:
            runs = [(sf.imin, sf.imax)]
            for _, o, s in (sf.e1, sf.e2):
                if s:
                    runs = _and(runs, [(lo - o, hi - o) if s > 0
                                       else (o - hi, o - lo)])
                elif not lo <= o <= hi:
                    runs = []
            arcs.extend(sf.member(i) for a, b in runs for i in range(a, b + 1))
        return list(dict.fromkeys(sorted(arcs, key=z.arc_key)))

    def dual_quiver(self, nodes: Sequence[Arc]) -> DualQuiver:
        """The dual quiver on the given diagonals of T: s -> t for
        consecutive counterclockwise sides of a triangle of T."""
        z = self.z
        node_set = set(nodes)
        triangles: set[frozenset[Vertex]] = set()
        for d in nodes:
            for side in (z.succ(d.p), z.succ(d.q)):
                if side in (d.p, d.q):
                    continue
                tri = self.triangle_on_side(d, side)
                triangles.add(frozenset(tri))
        arrows: list[tuple[Arc, Arc]] = []
        for tri in triangles:
            a, b, c = sorted(tri, key=z.key)  # counterclockwise
            sides = (Arc(a, b), Arc(b, c), Arc(c, a))
            for i in range(3):
                s, t = sides[i], sides[(i + 1) % 3]
                if s in node_set and t in node_set:
                    arrows.append((s, t))
        arrows.sort(key=lambda st: (z.arc_key(st[0]), z.arc_key(st[1])))
        return DualQuiver(tuple(nodes), tuple(arrows))


# ---------------------------------------------------------------------------
# Validation


def _sides(z: ZModel, sf: _SubFamily, which: int, p: ClosurePoint,
           q: ClosurePoint, kp, kq) -> tuple[Sequence, Sequence]:
    """(In, Out): the maximal runs of all indices i (None unbounded)
    where endpoint ``which`` of sf, (b, o + s*i), lies strictly inside
    the counterclockwise interval (p, q), and (q, p), of keys kp, kq.
    Block b is a line of vertices from L(b - 1) to L(b), the index
    rising counterclockwise, so a moving endpoint (s = +-1) meets p at
    ip = s*(p.idx - o) when p is in b, q likewise, and lies on one side
    between them and on the other past them.  A constant endpoint, or a
    block holding neither, lies on one side for every i, or on none."""
    b, o, s = sf.e2 if which else sf.e1
    ip = s * (p.idx - o) if p.__class__ is Vertex and p.block == b else None
    iq = s * (q.idx - o) if q.__class__ is Vertex and q.block == b else None
    if s == 0 or ip is None is iq:
        kv = sf.key(z, which, 0)  # ModelError for a block outside z
        if kv == kp or kv == kq:
            return (), ()
        every = ((None, None),)
        return (every, ()) if keys_in_closed(kp, kv, kq) else ((), every)
    if s < 0:  # the endpoint runs clockwise as i rises
        ip, iq = iq, ip
    if ip is None:
        return [(None, iq - 1)], [(iq + 1, None)]
    if iq is None:
        return [(ip + 1, None)], [(None, ip - 1)]
    lo, hi = sorted((ip, iq))
    mid, ends = [(lo + 1, hi - 1)], [(None, lo - 1), (hi + 1, None)]
    return (mid, ends) if ip < iq else (ends, mid)


def _meet(r, s) -> tuple[int | None, int | None] | None:
    """The intersection of two index runs (None unbounded), if any."""
    lo = r[0] if s[0] is None or r[0] is not None and r[0] > s[0] else s[0]
    hi = r[1] if s[1] is None or r[1] is not None and r[1] < s[1] else s[1]
    return (lo, hi) if lo is None or hi is None or lo <= hi else None


def _union(runs) -> list[tuple[int | None, int | None]]:
    """The indices of the given runs as maximal runs, in increasing
    order; an empty run (lo > hi) adds nothing."""
    out: list = []
    for lo, hi in sorted(runs, key=lambda r: (r[0] is not None, r[0] or 0)):
        if lo is not None and hi is not None and lo > hi:
            continue
        if out and (out[-1][1] is None or lo <= out[-1][1] + 1):
            top = out[-1][1]
            out[-1] = (out[-1][0], None if None in (top, hi) else max(top, hi))
        else:
            out.append((lo, hi))
    return out


def _and(rs, ss) -> list[tuple[int | None, int | None]]:
    """The maximal runs of the indices in both runs rs and runs ss."""
    return _union(filter(None, (_meet(r, s) for r in rs for s in ss)))


def _clip(sf: _SubFamily, runs) -> list[tuple[int | None, int | None]]:
    """The maximal runs of the given indices in sf's range."""
    return _and(runs, ((sf.imin, sf.imax),))


def _at(sf: _SubFamily, which: int, v: ClosurePoint) -> list:
    """The run, if any, where endpoint ``which`` of sf is the point v."""
    i = sf._match(sf.e2 if which else sf.e1, v)
    return [] if i is None else [(None, None) if i == "any" else (i, i)]


def _within(z: ZModel, sf: _SubFamily, which: int, p: ClosurePoint,
            q: ClosurePoint, kp, kq) -> list[tuple[int | None, int | None]]:
    """The maximal runs of all indices where endpoint ``which`` of sf
    lies in the closed counterclockwise interval [p, q] of keys kp, kq
    (the point p when kp == kq): strictly inside it, or at an end."""
    inside = _sides(z, sf, which, p, q, kp, kq)[0] if kp != kq else ()
    return _union([*inside, *_at(sf, which, p), *_at(sf, which, q)])


def _apart(sf: _SubFamily, lo: int, hi: int
           ) -> list[tuple[int | None, int | None]]:
    """The run, if any, of indices in sf's range where member(i)'s
    endpoints lie in one block at offsets (o1 + s1*i) - (o2 + s2*i) =
    c + d*i from lo to hi: one interval of i, or every i or none when
    d = 0."""
    (b1, o1, s1), (b2, o2, s2) = sf.e1, sf.e2
    c, d = o1 - o2, s1 - s2
    if b1 != b2 or d == 0 and not lo <= c <= hi:
        return []
    if d < 0:  # -c - d*i runs from -hi to -lo
        c, d, lo, hi = -c, -d, -hi, -lo
    return _clip(sf, [(-((c - lo) // d), (hi - c) // d) if d else
                      (None, None)])


def _family_crossings(z: ZModel, fa: _SubFamily, fb: _SubFamily
                      ) -> list[tuple[int | None, int | None]]:
    """The maximal runs of j in fb's range (None unbounded), in
    increasing order, where some member of fa crosses fb.member(j).

    Why it is exact.  The (block, index) order of vertices linearizes
    the circle, and two chords cross iff their endpoints alternate
    along it: one of 8 chains v < w < v' < w' or w < v < w' < v', with
    {v, v'} fa's endpoints and {w, w'} fb's.  A link of (b, o + s*i)
    and (b', o' + s'*j) is constant when b != b', else s*i <= o' - o -
    1 + s'*j or its mirror: a bound on i, with unit coefficient, or on
    j alone.  An integer i meets a chain's bounds and fa's range iff
    each lower bound is at most each upper one, all integers: a bound
    on j per pair, so each chain holds on one interval of j."""
    out = []
    for v, v2 in ((fa.e1, fa.e2), (fa.e2, fa.e1)):
        for w, w2 in ((fb.e1, fb.e2), (fb.e2, fb.e1)):
            # (fa's point, fb's point, +1 when fa's comes first)
            for links in (((v, w, 1), (v2, w, -1), (v2, w2, 1)),
                          ((v, w, -1), (v, w2, 1), (v2, w2, -1))):
                ok = True
                lows = [] if fa.imin is None else [(fa.imin, 0)]
                ups = [] if fa.imax is None else [(fa.imax, 0)]
                on_j = []  # (e, g): e*j <= g
                for (bp, op, sp), (bq, oq, sq), sign in links:
                    a, c, t = sign * sp, sign * (oq - op) - 1, sign * sq
                    if bp != bq:
                        ok &= (bp < bq) == (sign > 0)
                    elif a:  # a*i <= c + t*j
                        (ups if a > 0 else lows).append((a * c, a * t))
                    else:
                        on_j.append((-t, c))
                on_j += [(b - d, c - a) for a, b in lows for c, d in ups]
                lo = hi = None
                for e, g in on_j:
                    if e == 0:
                        ok &= g >= 0
                    elif e > 0:
                        hi = g // e if hi is None else min(hi, g // e)
                    else:
                        lo = -(g // -e) if lo is None else max(lo, -(g // -e))
                if ok:
                    out.append((lo, hi))
    return _clip(fb, out)


def _crossing_runs(z: ZModel, sf: _SubFamily, a: Arc
                   ) -> list[tuple[int | None, int | None]]:
    """The maximal runs (None unbounded), in increasing order, where
    member(i) crosses the (possibly virtual) arc a, as ``keys_cross``
    reads member keys against a's.

    Why it is exact.  The test holds when one endpoint lies strictly
    inside (a.p, a.q) counterclockwise and the other inside (a.q, a.p):
    on (In1 & Out2) | (Out1 & In2), with the runs of ``_sides``.  A
    member that is not a diagonal crosses nothing, as no point lies
    strictly between equal or adjacent vertices.  Runs of one part at
    adjacent indices would lie in one run of each factor, and runs of
    the two parts never are, as an endpoint changes sides only by
    stepping onto a.p or a.q: clipped to the range, they are maximal."""
    p, q, kp, kq = a.p, a.q, z.key(a.p), z.key(a.q)
    in1, out1 = _sides(z, sf, 0, p, q, kp, kq)
    in2, out2 = _sides(z, sf, 1, p, q, kp, kq)
    out, rng = [], (sf.imin, sf.imax)
    for r1s, r2s in ((in1, out2), (out1, in2)):
        for r1 in r1s:
            for r2 in r2s:
                if (r := _meet(r1, r2)) and (r := _meet(r, rng)):
                    out.append(r)
    return sorted(out, key=lambda r: (r[0] is not None, r[0] or 0))


def validate(t: Triangulation) -> ValidationReport:
    """Whether t is a triangulation: one tail at every limit point and
    nowhere else (iv), every core arc and every tail member a diagonal
    (i), no two arcs crossing (ii), and every face a triangle (iii).
    The checks run cheapest first, and the first failure is reported
    with its witness.

    The n - 3 rule.  Over a finite n-gon every set of pairwise
    non-crossing diagonals extends to a triangulation, and every
    triangulation has n - 3 diagonals.  So once (iv), (i) and the core
    part of (ii) pass, a core of n - 3 diagonals is a triangulation and
    no face is walked.

    Why the faces at the core and the tail end members are exact.  Let
    (iv), (i) and (ii) pass.  A tail member has a triangle of its own
    tail, with an edge as a side, on the side of the next member, and
    so does every member past the finite end on its other side.  A fountain's {base, (b, i)} forms
    them with {base, (b, i -+ 1)}.  A leapfrog with r, l = right_from,
    left_to has a_m = {(b, r+m), (b+1, l-m)} and b_m = {(b+1, l-m),
    (b, r+m+1)}: a_m and b_m close a triangle with the edge
    {(b, r+m), (b, r+m+1)}, and b_m and a_(m+1) one with
    {(b+1, l-m-1), (b+1, l-m)}.  Members are diagonals, so neighbours
    lie on opposite sides.  Such a triangle touches the circle only at
    its corners and no arc crosses its sides, so it is a face.  Every
    face has an arc of T as a side: T has arcs, and members of a
    fountain accumulate on both sides of its limit chord.  So a face
    that is none of these triangles is a face of a core diagonal, or
    the face of an end member outside its tail, and only those
    (``face_sides``) are checked.  On an n-gon with a non-empty core
    every face has a core diagonal as a side.  An empty core fails at
    its one face, checked at the edge {0, 1}: the face's side
    {1, n - 1} is not an arc of T."""
    z = t.z
    k = 0 if z.is_finite else z.k
    have = sorted({g for g, _ in t.tails})
    extra = [g for g in have if not 0 <= g < k]
    inside = [-1] + [g for g in have if 0 <= g < k] + [k]
    # the gaps with no tail, as closed ranges
    missing = [(a + 1, b - 1) for a, b in zip(inside, inside[1:]) if b > a + 1]
    if missing or extra:
        return ValidationReport(False, "tail coverage",
                                {"missing": missing, "extra": extra})
    for a in t.core:
        if not z.is_diagonal(a):
            return ValidationReport(False, "non-diagonal arc", a)
    subfams = t.subfamilies
    for sf in subfams:
        sf.key(z, 0, 0), sf.key(z, 1, 0)  # ModelError for a block outside z
        for lo, hi in _apart(sf, -1, 1):  # equal or adjacent endpoints
            return ValidationReport(False, "non-diagonal tail member",
                                    (sf.gap, sf.sub, sf.near_end(lo, hi)))
    core = sorted(t.core, key=z.arc_key)
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            if z.crosses(a, b):
                return ValidationReport(False, "crossing pair", (a, b))
    if z.is_finite and len(t.core) == z.n - 3:
        return ValidationReport(True)

    # (ii) for the tails
    def first_crossing(sf: _SubFamily, arc: Arc) -> int | None:
        for lo, hi in _crossing_runs(z, sf, arc):
            return sf.near_end(lo, hi)
        return None

    for sf in subfams:
        for a in core:
            i = first_crossing(sf, a)
            if i is not None:
                return ValidationReport(False, "crossing pair",
                                        (a, (sf.gap, sf.sub, i)))
    for ia, fa in enumerate(subfams):
        for fb in subfams[ia + 1:]:
            if fa.gap == fb.gap:
                continue  # same tail: non-crossing by construction
            for lo, hi in _family_crossings(z, fa, fb):
                j = fb.near_end(lo, hi)
                return ValidationReport(
                    False, "crossing pair",
                    ((fa.gap, fa.sub, first_crossing(fa, fb.member(j))),
                     (fb.gap, fb.sub, j)))

    # (iii) the faces that can fail, as the docstring argues
    def check_face(d: Arc, side: ClosurePoint):
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

    for d, side in face_sides(t):
        bad = check_face(d, side)
        if bad:
            return bad
    if z.is_finite and not t.core:
        return check_face(Arc(z.v(0), z.v(1)), z.v(2))
    return ValidationReport(True)


def face_sides(t: Triangulation) -> list[tuple[Arc, ClosurePoint]]:
    """The faces that ``validate``'s docstring shows can fail, as pairs
    (arc, side marker) for ``triangle_on_side``: both faces of each core
    diagonal, and of each tail end member the face outside its tail,
    marked by its moving end one index past the range.  Arcs come in
    key order on Blocks models, in the core's own order on an n-gon."""
    z = t.z
    sides = {d: (z.succ(d.p), z.succ(d.q)) for d in t.core}
    for sf in t.subfamilies:
        i = sf.near_end(sf.imin, sf.imax)
        past = i - 1 if sf.imin is not None else i + 1
        sides.setdefault(sf.member(i), (sf.vertex(1, past),))
    arcs = sides if z.is_finite else sorted(sides, key=z.arc_key)
    return [(d, side) for d in arcs for side in sides[d]]


# ---------------------------------------------------------------------------
# Exhaustive enumeration for finite polygons.


def enumerate_triangulations(z: ZModel) -> list[Triangulation]:
    """All triangulations of a finite polygon, canonically ordered."""
    if not z.is_finite:
        raise ModelError("enumeration is only defined for finite polygons")
    n = z.n

    def solve(idxs: tuple[int, ...]) -> list[frozenset[Arc]]:
        if len(idxs) <= 3:
            return [frozenset()]
        a, b = idxs[0], idxs[-1]
        out = []
        for mi in range(1, len(idxs) - 1):
            m = idxs[mi]
            for left in solve(idxs[:mi + 1]):
                for right in solve(idxs[mi:]):
                    diags = set(left) | set(right)
                    for (x, y) in ((a, m), (m, b)):
                        if (y - x) % n not in (1, n - 1):
                            diags.add(z.arc(x, y))
                    out.append(frozenset(diags))
        return out

    cores = solve(tuple(range(n)))
    tris = [Triangulation.make(z, c) for c in cores]
    tris.sort(key=lambda t: sorted(map(z.arc_key, t.core)))
    return tris
