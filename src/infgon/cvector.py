"""c-vectors, dimension vectors of virtual arcs, image arcs, and the
constructive realization of dimension vectors as c-vectors.

Every functional here is a ``homindex.CoVector``, the one type of
integer functionals on the diagonals of a triangulation, with its
tail terms ``homindex.TailRange``.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

from .homindex import CoVector, TailRange, index_coeffs
from .triangulation import Triangulation, _crossing_runs
from .zmodel import (Arc, Frozen, ModelError, RealizationUnsupported,
                     keys_cross, keys_in_closed, suspend)


class CVectorQuery(Frozen):
    """The c-vector of the pair (u, U) written in the basis dual to T."""

    __slots__ = _fields = ("t", "u_tri", "u")
    _values = attrgetter(*_fields)

    def __init__(self, t: Triangulation, u_tri: Triangulation, u: Arc):
        if t.z != u_tri.z:
            raise ModelError("triangulations live over different models")
        if not u_tri.contains(u):
            raise ModelError(f"{u!r} is not a diagonal of U")
        super().__init__(t, u_tri, u)


def cvector_eval(q: CVectorQuery, t_arc: Arc) -> int:
    """Coefficient of [u] in -index(U, suspend(t_arc)); t_arc must be
    a diagonal of T."""
    if not q.t.contains(t_arc):
        raise ModelError(f"{t_arc!r} is not a diagonal of T")
    return -index_coeffs(q.u_tri, suspend(q.u_tri.z, t_arc)).get(q.u, 0)


# ---------------------------------------------------------------------------
# Dimension vectors: exact crossing indicators.


def dimension_vector(t: Triangulation, a: Arc) -> CoVector:
    """The 0/1 crossing-indicator functional of the virtual arc a.  An
    arc that T holds twice (in the core and a tail, or in two tails)
    counts once, where ``CoVector.eval`` reads it: in a term of the
    first subfamily holding it, else explicitly.  So explicit arcs a
    term covers are dropped, and a term starts past the members an
    earlier subfamily holds (two subfamilies share finitely many
    members, at the finite end of both).  Memoized on t per arc: the
    memo keeps the support arcs and tail terms, which do not refer to
    t, and every call returns a fresh CoVector, so no caller can change
    a stored answer; a failure is never stored."""
    memo = t._memo("dimension_vector")
    if (got := memo.get(a)) is None:
        z = t.z
        explicit = {}
        if pairs := t.core_keys:
            ka, kb = z.key(a.p), z.key(a.q)
            for d, kd in pairs.items():
                if kd is None:
                    raise ModelError(f"{d!r} is not a diagonal")
                if keys_cross(ka, kb, *kd):
                    explicit[d] = 1
        terms: list[TailRange] = []
        for sf in t.subfamilies:
            # members and terms are built afresh each call: keep one of each
            intern = t._memo("dimension_parts").setdefault
            for lo, hi in _crossing_runs(z, sf, a):
                if lo is not None and hi is not None:
                    for m in map(sf.member, range(lo, hi + 1)):
                        explicit[intern(m, m)] = 1
                    continue
                while t.tail_ref_of(sf.member(lo if hi is None else hi)
                                    )[:2] != (sf.gap, sf.sub):
                    lo, hi = (lo + 1, hi) if hi is None else (lo, hi - 1)
                tr = TailRange(sf.gap, sf.sub, lo, hi, 1)
                terms.append(intern(tr, tr))
        covered = CoVector(t, None, tuple(terms))
        memo[a] = got = (tuple([d for d in explicit if not covered.eval(d)]),
                         covered.tail_terms)
    return CoVector._owning(t, dict.fromkeys(got[0], 1), got[1])


def support_subset(a: CoVector, b: CoVector) -> bool:
    """Decidable inclusion supp(a) <= supp(b) for crossing indicators
    over the same triangulation: dimension vectors or their negatives,
    which are every CoVector the library builds.  Each of their tail
    terms is a crossing run unbounded on one side (finite runs are
    explicit), maximal but for the members at its finite end that an
    earlier subfamily holds, which count there.  So a term of a lies in
    supp(b) iff it lies inside one term of b on the same subfamily
    (interval containment, None unbounded), and an explicit arc of a
    needs b nonzero there."""
    if a.t != b.t:
        raise ModelError("supports live over different triangulations")

    def inside(tr: TailRange, s: TailRange) -> bool:
        return ((tr.gap, tr.sub) == (s.gap, s.sub)
                and (s.lo is None or tr.lo is not None and s.lo <= tr.lo)
                and (s.hi is None or tr.hi is not None and tr.hi <= s.hi))
    return (all(b.eval(arc) for arc in a.explicit)
            and all(any(inside(tr, s) for s in b.tail_terms)
                    for tr in a.tail_terms))


# ---------------------------------------------------------------------------
# Image arcs and full c-vectors.


def image_arc(t: Triangulation, u: Arc, ustar: Arc) -> Arc | None:
    """The arc describing the image of the extremal map determined by
    the crossing pair (u, u*): u = {b0, b1} and u* = {a0^-, a1^-}."""
    z = t.z
    if not z.crosses(u, ustar):
        raise ModelError("u and u* must cross")
    b0, b1 = u.p, u.q
    s, r = ustar.p, ustar.q
    if z.strictly_between(b0, s, b1):
        a1m, a0m = s, r
    else:
        a1m, a0m = r, s
    a1, a0 = z.succ(a1m), z.succ(a0m)
    got = t.bridge_quadruple(a0, b0, a1, b1)
    if got is None:
        return None
    _, _, h0, _, _, h1 = got
    return Arc(h0, h1)


def _support_member(t: Triangulation, c: CoVector) -> Arc | None:
    """A diagonal of T where c is nonzero, None when c is zero: an
    explicit arc, or the member at a tail term's finite end."""
    fams = {(sf.gap, sf.sub): sf for sf in t.subfamilies}
    ends = (fams[tr.gap, tr.sub].member(tr.hi if tr.lo is None else tr.lo)
            for tr in c.tail_terms)
    return next(chain(c.explicit, ends), None)


def cvector_full(q: CVectorQuery) -> tuple[int, Arc, CoVector]:
    """Sign, representing arc, and exact CoVector of the c-vector of
    (u, U) over T.

    With u* the exchange partner of u in U, a positive c-vector is the
    dimension vector of the image arc of (u, u*), and a negative one
    minus that of the image arc of (u*, u).  Each candidate is checked
    by the index formula at one diagonal of T in its exact support: the
    c-vector is sign-coherent (Nakanishi-Zelevinsky), so one value of
    the candidate's sign decides it, and no window is sampled."""
    t, u_tri, u = q.t, q.u_tri, q.u
    ustar = u_tri.exchange_partner(u)
    for sign, (a, b) in ((1, (u, ustar)), (-1, (ustar, u))):
        v_arc = image_arc(t, a, b)
        if v_arc is None:
            continue
        dv = dimension_vector(t, v_arc)
        d = _support_member(t, dv)
        if d is not None and sign * cvector_eval(q, d) > 0:
            return (sign, v_arc, dv if sign > 0 else -dv)
    raise ModelError("neither image arc of u and its exchange partner "
                     "carries the c-vector; invalid query")


# ---------------------------------------------------------------------------
# Realization of dimension vectors as c-vectors.


def _complete_greedy(t: Triangulation, arcs: set[Arc]) -> frozenset[Arc]:
    """Complete a non-crossing arc set over a finite polygon to a
    triangulation by scanning diagonals in canonical order (equivalent
    to fanning every remaining face from its least vertex).  Chords
    are held as index pairs p < q, and (i, j) crosses (p, q) iff
    exactly one of p, q lies strictly between i and j."""
    z = t.z
    n = z.n
    out = set(arcs)
    kept = {(a.p.idx, a.q.idx) for a in arcs}
    for i in range(n):
        for j in range(i + 2, n if i else n - 1):
            if (i, j) in kept or any(i < p < j < q or p < i < q < j
                                     for p, q in kept):
                continue
            kept.add((i, j))
            out.add(z.arc(i, j))
    return frozenset(out)


def realize_dimension_vector(t: Triangulation, v: Arc
                             ) -> tuple[Triangulation, Arc]:
    """A pair (U, u) whose c-vector over T equals the dimension vector
    of the diagonal v.

    With (i0, s0, i1, s1) the crossing quadruple of v = {v0, v1}, U0 is
    the greedy completion of the diagonals of T that v does not cross,
    together with u0 = {i0, i1}, {i0, v0} and {i1, v1} where they are
    diagonals.  U0 satisfies the bar-variant: the coefficient of [u0]
    in index(U0, t) is dim(v)(t).  The plain c-vector needs the
    exchange flip at u0 followed by suspension of the whole pair:
    c(suspend u0*, suspend U0*) = -cbar(u0*, U0*) = cbar(u0, U0).

    The exchange partner u0* is v = {v0, v1} itself, so U0 is never
    built: U is the suspension of (U0 - {u0}) | {v} and u = suspend(v).
    {v0, i1} and {v1, i0} are sides of the triangles {i1, v0, s0} and
    {i0, v1, s1} of T, so each is an edge or a diagonal of T that v
    does not cross (they share an endpoint), kept in U0; {i0, v0} and
    {i1, v1} are edges or added.  With u0 these four arcs bound the two
    triangles {i0, v0, i1} and {i1, v1, i0}, faces of U0 as they meet
    the circle only at their corners, so the flip at u0 gives {v0, v1}.

    The quadruple is read off dv, whose support C is the diagonals of T
    crossing v, that is, joining A0 = (v1, v0) to A1 = (v0, v1).  Along
    A0 from v1 and A1 from v0, i0 is the first vertex joined to A1, s1
    the last joined to i0, i1 the first joined to A0 and s0 the last
    joined to i1 (the tests' ``crossing_quadruple``).  Arcs of C do not
    cross, so one with a later A1 end has no later A0 end: an arc of C
    at i0 ends at C's last A1 end, s1; likewise s0 is C's last A0 end.
    The two triangles of T above are checked, and the c-vector against
    dim(v) at every diagonal of T."""
    z = t.z
    if not z.is_diagonal(v):
        raise ModelError(f"{v!r} is not a diagonal")
    dv = dimension_vector(t, v)
    if dv.is_zero():
        raise ModelError("v crosses no diagonal of T (zero vector excluded)")
    if dv.tail_terms:
        raise RealizationUnsupported(
            "the crossing set of v is infinite; the construction would "
            "be an infinite mutation")
    if not z.is_finite:
        raise RealizationUnsupported(
            "realization over Blocks models with finite crossing sets "
            "is not needed and not supported")
    v0, v1 = v.p, v.q
    kv0, kv1, pairs = z.key(v0), z.key(v1), t.core_keys
    ends0, ends1 = [], []  # C's ends in A0, in A1: (key from v0, vertex)
    for d in dv.explicit:
        for k, p in zip(pairs[d], (d.p, d.q)):
            ends = ends1 if keys_in_closed(kv0, k, kv1) else ends0
            ends.append(((k < kv0, k), p))
    (_, i0), (_, s0) = min(ends0), max(ends0)
    (_, i1), (_, s1) = min(ends1), max(ends1)
    for d, end in ((Arc(s0, i1), v0), (Arc(i0, s1), v1)):
        if (h := t.third_vertex(d, end)) != end:
            raise AssertionError(f"the triangle of T on {d!r} toward {v!r} "
                                 f"rests on {h!r}, not on {end!r}")
    keep = {d for d in t.core if d not in dv.explicit}  # v crosses none
    u0 = Arc(i0, i1)
    for extra in (u0, Arc(i0, v0), Arc(i1, v1)):
        if z.is_diagonal(extra):
            keep.add(extra)
    core = _complete_greedy(t, keep)
    u = suspend(z, v)
    u_tri = Triangulation.make(
        z, [suspend(z, d) for d in core if d != u0] + [u])
    q = CVectorQuery(t, u_tri, u)
    for d in t.core:
        if cvector_eval(q, d) != dv.eval(d):
            raise AssertionError(f"realization failed verification at {d!r}")
    return (u_tri, u)
