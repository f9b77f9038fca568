"""c-vectors, dimension vectors of virtual arcs, image arcs, and the
constructive realization of dimension vectors as c-vectors.

A CoVector is an integer functional on the diagonals of a fixed
triangulation, stored as a finite explicit part plus finitely many
tail-range indicators so that functionals with infinite support (over
Blocks models) are represented exactly.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from .homindex import index, index_bar
from .triangulation import Triangulation, _crossing_runs
from .zmodel import Arc, Frozen, ModelError, RealizationUnsupported, suspend


class TailRange(NamedTuple):
    """Coefficient ``coeff`` on every member i of subfamily
    (gap, sub) with lo <= i <= hi (None = unbounded)."""

    gap: int
    sub: str
    lo: int | None
    hi: int | None
    coeff: int

    def covers(self, i: int) -> bool:
        if self.lo is not None and i < self.lo:
            return False
        if self.hi is not None and i > self.hi:
            return False
        return True


class CoVector:
    """Integer functional on the diagonals of a fixed triangulation."""

    __slots__ = ("t", "explicit", "tail_terms")

    def __init__(self, t: Triangulation, explicit: dict[Arc, int] | None = None,
                 tail_terms: tuple[TailRange, ...] = ()):
        self.t = t
        self.explicit = {a: c for a, c in (explicit or {}).items() if c != 0}
        self.tail_terms = tuple(tr for tr in tail_terms if tr.coeff != 0)

    def eval(self, d: Arc) -> int:
        val = self.explicit.get(d, 0)
        if self.tail_terms:
            ref = self.t.tail_ref_of(d)
            if ref is not None:
                gap, sub, i = ref
                for tr in self.tail_terms:
                    if tr.gap == gap and tr.sub == sub and tr.covers(i):
                        val += tr.coeff
        return val

    def negate(self) -> "CoVector":
        return CoVector(
            self.t, {a: -c for a, c in self.explicit.items()},
            tuple(TailRange(tr.gap, tr.sub, tr.lo, tr.hi, -tr.coeff)
                  for tr in self.tail_terms))

    def is_zero(self) -> bool:
        return not self.explicit and not self.tail_terms

    def is_positive(self) -> bool:
        return (all(c >= 0 for c in self.explicit.values())
                and all(tr.coeff >= 0 for tr in self.tail_terms)
                and not self.is_zero())

    def is_negative(self) -> bool:
        return (all(c <= 0 for c in self.explicit.values())
                and all(tr.coeff <= 0 for tr in self.tail_terms)
                and not self.is_zero())

    def sign_coherent(self) -> bool:
        return self.is_zero() or self.is_positive() or self.is_negative()

    def _canon(self):
        z = self.t.z
        expl = tuple(sorted(((z.key(a.p), z.key(a.q), c)
                             for a, c in self.explicit.items())))
        tails = tuple(sorted(
            (tr.gap, tr.sub,
             (0, tr.lo) if tr.lo is not None else (-1, 0),
             (0, tr.hi) if tr.hi is not None else (1, 0), tr.coeff)
            for tr in self.tail_terms))
        return (expl, tails)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CoVector) and self.t == other.t
                and self._canon() == other._canon())

    def __hash__(self) -> int:
        return hash(self._canon())

    def __repr__(self) -> str:
        return f"CoVector({self.explicit!r}, {self.tail_terms!r})"


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
    return index_bar(q.u_tri, t_arc).get(q.u)


def cvector_bar_eval(q: CVectorQuery, t_arc: Arc) -> int:
    """Coefficient of [u] in index(U, t_arc)."""
    if not q.t.contains(t_arc):
        raise ModelError(f"{t_arc!r} is not a diagonal of T")
    return index(q.u_tri, t_arc).get(q.u)


# ---------------------------------------------------------------------------
# Dimension vectors: exact crossing indicators.


def dimension_vector(t: Triangulation, a: Arc) -> CoVector:
    """The 0/1 crossing-indicator functional of the virtual arc a.  An
    arc that T holds twice (in the core and a tail, or in two tails)
    counts once: explicit arcs that a tail term covers are dropped."""
    z = t.z
    explicit = {d: 1 for d in t.core if z.crosses(a, d)}
    terms: list[TailRange] = []
    for sf in t.subfamilies():
        for lo, hi in _crossing_runs(z, sf, a):
            if lo is not None and hi is not None:
                for i in range(lo, hi + 1):
                    explicit[sf.member(i)] = 1
            else:
                terms.append(TailRange(sf.gap, sf.sub, lo, hi, 1))
    if terms:
        covered = CoVector(t, None, tuple(terms))
        explicit = {d: 1 for d in explicit if not covered.eval(d)}
    return CoVector(t, explicit, tuple(terms))


# ---------------------------------------------------------------------------
# Supports.


class SupportDescriptor(NamedTuple):
    arcs: frozenset[Arc]
    ranges: tuple[tuple[int, str, int | None, int | None], ...]


def support(c: CoVector) -> SupportDescriptor:
    return SupportDescriptor(
        frozenset(c.explicit),
        tuple(sorted(((tr.gap, tr.sub, tr.lo, tr.hi)
                      for tr in c.tail_terms),
                     key=lambda r: (r[0], r[1],
                                    r[2] if r[2] is not None else -10 ** 9,
                                    r[3] if r[3] is not None else 10 ** 9))))


def support_subset(a: CoVector, b: CoVector) -> bool:
    """Decidable inclusion supp(a) <= supp(b) for covectors over the
    same triangulation."""
    if a.t != b.t:
        raise ModelError("supports live over different triangulations")
    for arc in a.explicit:
        if b.eval(arc) == 0:
            return False
    t = a.t
    fams = {(sf.gap, sf.sub): sf for sf in t.subfamilies()}
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
    fams = {(sf.gap, sf.sub): sf for sf in t.subfamilies()}
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
            return (sign, v_arc, dv if sign > 0 else dv.negate())
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
    of the diagonal v."""
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
    quad = t.crossing_quadruple(v)
    assert quad is not None
    i0, s0, i1, s1 = quad
    v0, v1 = v.p, v.q
    keep = {d for d in t.core if not z.crosses(v, d)}
    u0 = Arc(i0, i1)
    for extra in (u0, Arc(i0, v0), Arc(i1, v1)):
        if z.is_diagonal(extra):
            keep.add(extra)
    core = _complete_greedy(t, keep)
    u_tri0 = Triangulation.make(z, core)
    # This U satisfies the bar-variant: coefficient of [u0] in
    # index(U, t) equals dim(v)(t).  The plain c-vector needs the
    # exchange flip at u0 followed by suspension of the whole pair:
    # c(suspend u0*, suspend U*) = -cbar(u0*, U*) = cbar(u0, U).
    u_star = u_tri0.exchange_partner(u0)
    u_tri = Triangulation.make(
        z, {suspend(z, d) for d in (core - {u0}) | {u_star}})
    u = suspend(z, u_star)
    q = CVectorQuery(t, u_tri, u)
    for d in t.core:
        if cvector_eval(q, d) != dv.eval(d):
            raise AssertionError(f"realization failed verification at {d!r}")
    return (u_tri, u)
