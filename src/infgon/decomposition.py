"""Ordered crossing sets, their order types, and the root-system view.

For a triangulation T and a pair of closure points {e, f}, the
diagonals of T crossing the virtual arc {e, f} are totally ordered by
the position of their crossing point along the segment from e to f.
This module extracts that order exactly (including its order type for
infinite crossing sets), adjoins -infinity when a least element
exists, and maps intervals of the crossing set to roots
eps_y - eps_{y'}, realizing each set X_{e,f} of positive c-vectors as
the positive root system of a Borel subalgebra of sl_infinity (or of
sl_n in the finite case).

Infinite tail families are handled as elsewhere: every predicate on a
family is read off index runs solved in closed form, not sampled.
"""

from __future__ import annotations

import bisect
import functools
import weakref
from itertools import combinations
from typing import NamedTuple

from .cvector import CoVector, dimension_vector, support_subset
from .triangulation import (Leapfrog, Triangulation, UnattainedError,
                            _and, _at, _clip, _sides, _SubFamily, face_sides)
from .zmodel import (Arc, ClosurePoint, Limit, ModelError, Vertex,
                     keys_cross, keys_in_closed)


class NegInf(NamedTuple):
    """The formal least element -infinity adjoined to Y."""

    def __repr__(self) -> str:
        return "-inf"

    def __bool__(self) -> bool:  # an element, not an empty tuple
        return True


NEG_INFINITY = NegInf()


class OrderDescriptor(NamedTuple):
    """Order type of a crossing set: Finite(n), or an optional
    omega head, m copies of Z in the middle, and an optional
    omega* tail."""

    finite_size: int | None = None
    head: bool = False
    z_blocks: int = 0
    tail: bool = False

    @property
    def is_finite(self) -> bool:
        return self.finite_size is not None

    def __str__(self) -> str:
        if self.is_finite:
            return f"Finite({self.finite_size})"
        parts = (["omega"] if self.head else []) \
            + ["Z"] * self.z_blocks \
            + (["omega*"] if self.tail else [])
        return " + ".join(parts)


class Root(NamedTuple):
    """eps_pos - eps_neg with pos > neg in Y_ext."""

    pos: Arc
    neg: Arc | NegInf

    def vector(self) -> dict:
        """The root as a lattice vector over Y_ext coordinates, in
        which the tests check that psi is additive."""
        out: dict = {self.pos: 1}
        out[self.neg] = out.get(self.neg, 0) - 1
        return out


def add_vectors(a: dict, b: dict) -> dict:
    """The sum of two root vectors; psi's additivity is stated with it."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# The ordered crossing set Y = T cap {e, f}.


class _RunInfo:
    """An infinite index run of crossing members of one subfamily, held
    as the subfamily restricted to the run."""

    def __init__(self, ocs: "OrderedCrossingSet", sf: _SubFamily,
                 lo: int | None, hi: int | None):
        self.sf = sf = _SubFamily(sf.gap, sf.sub, lo, hi, sf.e1, sf.e2)
        self.open_sign = 1 if hi is None else -1
        self.closed = lo if hi is None else hi
        step = sf.member(self.closed + self.open_sign)
        self.dir_up = ocs._cmp(sf.member(self.closed), step) < 0
        self.inc_with_i = self.dir_up == (self.open_sign > 0)
        # the limit point the open end accumulates at, via p: the
        # endpoint inside (e, f), one all along a crossing run
        z = ocs.z
        self.p_first = z.strictly_between(ocs.e, sf.vertex(0, self.closed),
                                          ocs.f)
        blk, _, slope = sf.e1 if self.p_first else sf.e2
        going_up = (slope > 0) == (self.open_sign > 0)
        self.limit = Limit(blk) if going_up else Limit((blk - 1) % z.k)

    def reaches_open_end(self, runs) -> bool:
        """Whether one of these index runs is unbounded toward this
        run's open end."""
        return any((hi if self.open_sign > 0 else lo) is None
                   for lo, hi in runs)


class _Segment:
    """Maximal stretch of Y between consecutive accumulation points."""

    def __init__(self, idx: int):
        self.idx = idx
        self.explicit: list[Arc] = []
        self.up_runs: list[_RunInfo] = []
        self.down_runs: list[_RunInfo] = []

    def nonempty(self) -> bool:
        return bool(self.explicit or self.up_runs or self.down_runs)


class OrderedCrossingSet:
    """The diagonals of T crossing the virtual arc {e, f}, the support
    of dim({e, f}): its explicit arcs, and its tail terms kept as
    symbolic runs, totally ordered along the segment from e to f.  All
    order queries are answered exactly, on position keys.

    The order key.  A crosser x has one endpoint p strictly inside the
    counterclockwise interval (e, f) and the other, q, inside (f, e).
    With ke, kf, kp, kq their keys, rp = (kp < ke, kp) places p in the
    rotation of the keys that starts at e, and rq = (kq < kf, kq) places
    q in the one that starts at f.  The pairwise rule compares d1 =
    sign(rp_x - rp_y) and d2 = sign(rq_y - rq_x): it returns the nonzero
    one or their common sign, and raises when they are nonzero and
    opposite.  okey(x) = (rp, rq reversed) agrees with it.  Let x != y
    share no endpoint.  y's p lies inside the chord x iff rp_y > rp_x,
    and y's q iff rq_y < rq_x, so x and y cross iff d1 != d2: there the
    rule raises, and so does ``_cmp``, by ``keys_cross`` on the cached
    keys; otherwise d1 == d2, which the key, read rp first, gives.  A
    shared p makes d1 = 0 and the key reads rq; a shared q makes d2 = 0
    and the key reads rp.  Y refers to T weakly (``t``), so that T's
    memo holding Y holds no reference back to T."""

    def __init__(self, t: Triangulation, e: ClosurePoint, f: ClosurePoint):
        self.z = z = t.z
        self._t = weakref.ref(t)
        self.e = z._coerce_point(e)
        self.f = z._coerce_point(f)
        self.pair = Arc(self.e, self.f)
        self._ke, self._kf = z.key(self.e), z.key(self.f)
        self._keys: dict[Arc, tuple] = {}  # arc -> _order_keys, on first use
        dim = dimension_vector(t, self.pair)
        if dim.is_zero():
            raise ModelError(
                f"{self.pair!r} crosses no diagonal of T (empty Y)")
        fams = {(sf.gap, sf.sub): sf for sf in t.subfamilies}
        self._runs = [_RunInfo(self, fams[tr.gap, tr.sub], tr.lo, tr.hi)
                      for tr in dim.tail_terms]
        self._near: dict[tuple[Arc, bool], Arc | None] = {}
        self._sides: dict[tuple[_RunInfo, Arc, int], list] = {}
        self._explicit: tuple[Arc, ...] = tuple(
            sorted(dim.explicit, key=functools.cmp_to_key(self._cmp)))
        self._struct = None

    @property
    def t(self) -> Triangulation:
        if (t := self._t()) is None:
            raise ModelError("the triangulation of this crossing set is gone")
        return t

    # -- the order key --------------------------------------------------

    def _order_keys(self, k1, k2) -> tuple:
        """(okey, kp, kq) for the crosser with endpoint keys k1, k2: kp
        the key of the endpoint strictly inside (e, f), kq the other's.
        rq reversed is (kq >= kf, -kq), which compares descending."""
        ke, kf = self._ke, self._kf
        if k1 != ke and k1 != kf and keys_in_closed(ke, k1, kf):
            kp, kq = k1, k2
        else:
            kp, kq = k2, k1
        return (((kp < ke, kp), (kq >= kf, -kq[0], -kq[1], -kq[2])),
                kp, kq)

    def _okey(self, x: Arc) -> tuple:
        k = self._keys.get(x)
        if k is None:
            key = self.z.key
            k = self._keys[x] = self._order_keys(key(x.p), key(x.q))
        return k

    def _cmp_keys(self, kx, ky, arcs) -> int:
        """-1/+1: the order of two crossers from their keys (okey, kp,
        kq); ``arcs()`` gives the two arcs for an error message."""
        if kx[0] == ky[0]:
            raise ModelError("{!r} and {!r} coincide as crossers"
                             .format(*arcs()))
        if keys_cross(kx[1], kx[2], ky[1], ky[2]):
            raise ModelError("incomparable crossing diagonals {!r}, {!r} "
                             "(crossing pair)".format(*arcs()))
        return -1 if kx[0] < ky[0] else 1

    def _cmp(self, x: Arc, y: Arc) -> int:
        """-1/0/+1: position of the crossing point of x along e -> f
        against that of y, for members x, y of Y."""
        if x == y:
            return 0
        return self._cmp_keys(self._okey(x), self._okey(y), lambda: (x, y))

    def less(self, x: Arc, y: Arc) -> bool:
        """The paper's order on Y, x < y, as a predicate."""
        return self._cmp(x, y) < 0

    # -- membership ----------------------------------------------------

    def contains(self, a: Arc) -> bool:
        return self.z.crosses(self.pair, a) and self.t.contains(a)

    # -- segment structure ---------------------------------------------

    def _segments(self) -> tuple[list[_Segment], list]:
        if self._struct is not None:
            return self._struct
        z = self.z
        cut_rels = sorted({z.rel(r.limit, self.e) for r in self._runs})
        nseg = len(cut_rels) + 1
        segs = [_Segment(i) for i in range(nseg)]
        for a in self._explicit:
            s = bisect.bisect_left(cut_rels, self._okey(a)[0][0])
            segs[s].explicit.append(a)
        for r in self._runs:
            ci = cut_rels.index(z.rel(r.limit, self.e))
            if r.dir_up:
                segs[ci].up_runs.append(r)
            else:
                segs[ci + 1].down_runs.append(r)
        live = [s for s in segs if s.nonempty()]
        for s in live:
            if s.idx > 0 and not s.down_runs:
                raise ModelError(
                    "crossing order is not sequential below an "
                    "accumulation point (invalid triangulation)")
            if s.idx < len(cut_rels) and not s.up_runs:
                raise ModelError(
                    "crossing order is not sequential above an "
                    "accumulation point (invalid triangulation)")
        self._struct = (live, cut_rels)
        return self._struct

    # -- order type -----------------------------------------------------

    def descriptor(self) -> OrderDescriptor:
        if not self._runs:
            return OrderDescriptor(finite_size=len(self._explicit))
        live, cuts = self._segments()
        return OrderDescriptor(
            head=live[0].idx == 0,
            z_blocks=sum(1 for s in live if 0 < s.idx < len(cuts)),
            tail=live[-1].idx == len(cuts))

    @property
    def is_finite(self) -> bool:
        return not self._runs

    def __len__(self) -> int:
        if not self.is_finite:
            raise ModelError("infinite crossing set has no length")
        return len(self._explicit)

    @property
    def members(self) -> tuple[Arc, ...]:
        if not self.is_finite:
            raise ModelError("infinite crossing set; use first()/last()")
        return self._explicit

    # -- extremes and windows -------------------------------------------

    @property
    def has_least(self) -> bool:
        return self.is_finite or self.descriptor().head

    @property
    def has_greatest(self) -> bool:
        return self.is_finite or self.descriptor().tail

    def least(self) -> Arc | None:
        return self.first(1)[0] if self.has_least else None

    def greatest(self) -> Arc | None:
        """Y's greatest element, if any: the paper's order, like least."""
        return self.last(1)[0] if self.has_greatest else None

    def first(self, k: int) -> list[Arc]:
        """The k least elements, enumerated upward."""
        return self._end(k, up=True)

    def last(self, k: int) -> list[Arc]:
        """The k greatest elements, in increasing order."""
        return self._end(k, up=False)

    def _end(self, k: int, up: bool) -> list[Arc]:
        """The k least (up) or greatest members, in increasing order:
        the end segment's explicit members and the first k members of
        each of its tail runs, read from the closed end, sorted as
        ``_explicit`` is."""
        if k <= 0:
            return []
        if not self._runs:
            return list(self._explicit[:k] if up else self._explicit[-k:])
        if not (self.has_least if up else self.has_greatest):
            raise ModelError("Y has no least element" if up
                             else "Y has no greatest element")
        live = self._segments()[0]
        seg = live[0] if up else live[-1]
        ends = seg.explicit + [
            r.sf.member(r.closed + j * r.open_sign)
            for r in (seg.up_runs if up else seg.down_runs) for j in range(k)]
        ends.sort(key=functools.cmp_to_key(self._cmp))
        return ends[:k] if up else ends[-k:]

    # -- one keyed selection ---------------------------------------------

    def _side_runs(self, r: _RunInfo, x: Arc, want: int):
        """Index runs of r's members other than x lying below x
        (want = -1) or above it (want = 1); kept per (r, x, want), while
        a failure raises again on every call.

        With p a member's endpoint inside (e, f), q the other, and x.p,
        x.q x's, the order key puts it below x where p is in (e, x.p),
        or p = x.p and q in (x.q, e); above, mirrored.  Along the run p
        stays in (e, f) and q in (f, e): these are the ``_sides`` of p
        against (e, x.p) and of q against (x.q, e).  Where they disagree
        (d1 != d2) the member crosses x: ``_cmp`` raises at the least."""
        out = self._sides.get((r, x, want))
        if out is not None:
            return out
        z, sf, wp = self.z, r.sf, 0 if r.p_first else 1
        _, kxp, kxq = self._okey(x)
        xp, xq = (x.p, x.q) if z.key(x.p) == kxp else (x.q, x.p)
        p_below, p_above = _sides(z, sf, wp, self.e, xp, self._ke, kxp)
        q_below, q_above = _sides(z, sf, 1 - wp, xq, self.e, kxq, self._ke)
        for lo, hi in _clip(sf, _and(p_below, q_above)
                            + _and(p_above, q_below))[:1]:
            self._cmp(sf.member(hi if lo is None else lo), x)
        p_side, q_side = (p_below, q_below) if want < 0 else (p_above, q_above)
        out = self._sides[r, x, want] = _clip(
            sf, [*p_side, *_and(_at(sf, wp, xp), q_side)])
        return out

    def _select(self, cands: list[Arc], runs, low: bool,
                unattained: str) -> Arc | None:
        """The least (low) or greatest of the members ``cands`` and of
        the index runs (r, lo, hi) of Y's tail runs r; None when there
        are none.  A run whose wanted end is open gives no candidate: it
        raises UnattainedError(unattained), naming the run's (gap, sub,
        closed index), unless the one found lies beyond the run's
        members far toward that end.  Each candidate is keyed once."""
        want = -1 if low else 1
        markers: list[_RunInfo] = []
        for r, lo, hi in runs:
            # members rise with i iff inc_with_i; the wanted end is
            # open when they approach a limit point
            end = lo if r.inc_with_i == low else hi
            if end is None:
                markers.append(r)
            else:
                cands.append(r.sf.member(end))
        best = kb = None
        for m in cands:
            km = self._okey(m)
            if best is None or m != best and self._cmp_keys(
                    km, kb, lambda: (m, best)) == want:
                best, kb = m, km
        for r in markers:
            # r's members far toward its open end lie beyond best
            if best is None or r.reaches_open_end(
                    self._side_runs(r, best, want)):
                raise UnattainedError(f"{unattained} (witness run "
                                      f"{r.sf.gap, r.sf.sub, r.closed})")
        return best

    # -- immediate neighbors --------------------------------------------

    def _neighbor(self, a: Arc, below: bool, check=True) -> Arc | None:
        """Greatest member < a (below) or least member > a, or None;
        checks that a is a member of Y unless ``check`` is false.  Y is
        read-only, so answers are kept per (a, below); the check runs,
        and a failure is raised, on every call."""
        if check and not self.contains(a):
            raise ModelError(f"{a!r} is not a member of Y")
        if (a, below) in self._near:
            return self._near[a, below]
        want = -1 if below else 1
        ka = self._okey(a)
        cands = [m for m in self._explicit if m != a and self._cmp_keys(
            self._okey(m), ka, lambda m=m: (m, a)) == want]
        runs = [(r, lo, hi) for r in self._runs
                for lo, hi in self._side_runs(r, a, want)]
        return self._near.setdefault((a, below), self._select(
            cands, runs, not below, "immediate neighbor approaches a limit "
            "point (non-sequential crossing order)"))

    def pred_in(self, a: Arc) -> Arc | None:
        """The paper's predecessor map in Y, as succ_in is its successor."""
        return self._neighbor(a, below=True)

    def succ_in(self, a: Arc) -> Arc | None:
        return self._neighbor(a, below=False)

    # -- extreme crossers of another arc ---------------------------------

    def crossing_interval_of(self, v: Arc, dv: CoVector | None = None
                             ) -> tuple[Arc, Arc]:
        """Least and greatest member of Y crossing v, read off dv =
        dim(v) (computed when not given).  An arc of T is in supp(dv)
        iff it crosses v, so they are supp(dv) cap Y, term by term: dv's
        explicit arcs that dim({e, f}) holds, Y's explicit members that
        dv holds, and dv's tail terms cut to Y's run on their subfamily
        (two terms on one subfamily are crossing runs unbounded toward
        its open side, so they meet in one).  A member of both that
        neither holds explicitly lies in a term of each on the first
        subfamily holding it, as both dims count an arc that T holds
        twice once by that rule.  In X_{e,f} supp(dv) lies inside Y
        (``in_X`` is support inclusion), so this set is supp(dv)."""
        if dv is None:
            dv = dimension_vector(self.t, v)
        dim = dimension_vector(self.t, self.pair)
        cands = [a for a in dv.explicit if dim.eval(a)]
        cands += [m for m in self._explicit if dv.eval(m)]
        runs = [(r, None if tr.lo is None else max(tr.lo, r.sf.imin),
                 None if tr.hi is None else min(tr.hi, r.sf.imax))
                for tr in dv.tail_terms for r in self._runs
                if (r.sf.gap, r.sf.sub) == (tr.gap, tr.sub)]
        if not cands and not runs:
            raise ModelError(f"{v!r} crosses no member of Y")
        msg = "extreme crossing member approaches a limit point"
        return (self._select(list(cands), runs, True, msg),
                self._select(cands, runs, False, msg))


def crossing_order(t: Triangulation, e: ClosurePoint, f: ClosurePoint
                   ) -> OrderedCrossingSet:
    """The crossing set Y of the virtual arc {e, f}, ordered from e.

    Memoized on t per ordered pair (e, f), after the coercion the
    constructor applies (a point outside the model raises ModelError
    first), so (f, e) is a separate entry, ordered from f.  Every call
    for a pair returns the same read-only Y; a failure, such as an
    empty Y, is never stored and is raised again on every call."""
    z = t.z
    pair = (z._coerce_point(e), z._coerce_point(f))
    memo = t._memo("crossing_order")
    y = memo.get(pair)
    if y is None:
        y = memo[pair] = OrderedCrossingSet(t, *pair)
    return y


# ---------------------------------------------------------------------------
# Y_ext: adjoin -infinity when a least element exists.


class YExt:
    """Y with -infinity prepended iff Y has a least element."""

    def __init__(self, y: OrderedCrossingSet):
        self.y = y
        self.has_neg_inf = y.has_least

    @property
    def is_finite(self) -> bool:
        return self.y.is_finite

    def __len__(self) -> int:
        return len(self.y) + (1 if self.has_neg_inf else 0)

    @property
    def members(self) -> tuple:
        base = self.y.members
        return ((NEG_INFINITY,) + base) if self.has_neg_inf else base

    def first(self, k: int) -> list:
        if self.has_neg_inf:
            return ([NEG_INFINITY] + self.y.first(k - 1)) if k > 0 else []
        return self.y.first(k)

    def last(self, k: int) -> list:
        if self.is_finite:
            return list(self.members[-k:]) if k > 0 else []
        return self.y.last(k)

    def iso_to_y(self, el) -> Arc:
        """The order isomorphism Y_ext -> Y for infinite Y: shift the
        head copy of N up by one step, identity elsewhere: the paper's
        map, kept as API."""
        if self.is_finite:
            raise ModelError("Y_ext is not isomorphic to a finite Y")
        if not self.has_neg_inf:
            return el
        if isinstance(el, NegInf):
            return self.y.least()
        live, cuts = self.y._segments()
        in_head = self.y._okey(el)[0][0] < cuts[0]
        return self.y.succ_in(el) if in_head else el


# ---------------------------------------------------------------------------
# Roots.


def psi(y: OrderedCrossingSet, a: Arc, b: Arc) -> Root:
    """The root eps_b - eps_{pred(a)} of the interval [a, b] of Y,
    with pred taken in Y_ext (so -infinity when a is least)."""
    if not (y.contains(a) and y.contains(b)):
        raise ModelError("interval endpoints must be members of Y")
    if y._cmp(a, b) > 0:
        raise ModelError("malformed interval: a > b")
    return _interval_root(y, a, b)


def _interval_root(y: OrderedCrossingSet, a: Arc, b: Arc) -> Root:
    """psi(y, a, b) for members a <= b of Y, which are not checked."""
    p = y._neighbor(a, below=True, check=False)
    return Root(pos=b, neg=NEG_INFINITY if p is None else p)


def in_X(t: Triangulation, e: ClosurePoint, f: ClosurePoint,
         c: CoVector) -> bool:
    """Membership of a positive c-vector in X_{e,f}: support inclusion
    into the support of dim({e, f})."""
    if c.is_zero():
        raise ModelError("the zero vector is not a c-vector")
    return support_subset(c, dimension_vector(t, t.z.arc(e, f)))


def decompose_row(t: Triangulation, e: ClosurePoint, f: ClosurePoint,
                  v: Arc) -> Root | None:
    """The positive root attached to dim(v) in X_{e,f}, or None when
    dim(v) is zero or not in X_{e,f}: psi of the least and greatest
    members of Y crossing v, which need no membership check.  In X_{e,f}
    they are read off the dim(v) at hand: the crossers of v are supp(dim
    v), inside supp(dim({e, f})) = Y (``crossing_interval_of``)."""
    dv = dimension_vector(t, v)
    if dv.is_zero() or not in_X(t, e, f, dv):
        return None
    y = crossing_order(t, e, f)
    return _interval_root(y, *y.crossing_interval_of(v, dv))


def root_of_arc(t: Triangulation, e: ClosurePoint, f: ClosurePoint,
                v: Arc) -> Root:
    """The positive root attached to dim(v) in X_{e,f}."""
    root = decompose_row(t, e, f, v)
    if root is None:
        if dimension_vector(t, v).is_zero():
            raise ModelError("v crosses no diagonal of T")
        raise ModelError(f"dim({v!r}) is not in X_({e!r},{f!r})")
    return root


def delta_plus(yext: YExt, window: int | None = None) -> list[Root]:
    """Delta^+(Y_ext): all roots eps_y - eps_{y'} with y > y' among
    the elements of Y_ext (restricted, when Y is infinite, to the first
    ``window`` elements if Y has a least one and the last ``window``
    if it has a greatest one)."""
    if yext.is_finite:
        els = list(yext.members)
    else:
        if window is None:
            raise ModelError("infinite Y_ext needs an enumeration window")
        if not (yext.y.has_least or yext.y.has_greatest):
            raise ModelError("Y has neither a least nor a greatest element")
        # the two ends lie in different segments: no element is repeated
        els = ((yext.first(window) if yext.y.has_least else [])
               + (yext.last(window) if yext.y.has_greatest else []))
    return [Root(pos=els[j], neg=els[i])
            for i in range(len(els)) for j in range(i + 1, len(els))]


def root_system_label(y: OrderedCrossingSet) -> str:
    if y.is_finite:
        return f"sl_{len(y) + 1} positive roots"
    return f"Borel of sl_infinity for Y = {y.descriptor()}"


# ---------------------------------------------------------------------------
# Maximal pairs and acyclicity.


def maximal_pairs(t: Triangulation) -> set[frozenset]:
    """The pairs {e, f} indexing the maximal sets X_{e,f}: both points
    ears of T or limit points of leapfrogs, with dim({e, f}) nonzero."""
    pts: set[ClosurePoint] = set(t.ears())
    for g, tail in t.tails:
        if isinstance(tail, Leapfrog):
            pts.add(Limit(g))
    out: set[frozenset] = set()
    for e, f in combinations(sorted(pts, key=t.z.key), 2):
        if not dimension_vector(t, Arc(e, f)).is_zero():
            out.add(frozenset({e, f}))
    return out


class MaximalityReport(NamedTuple):
    acyclic: bool
    pairs: frozenset
    football: tuple[Arc, Arc, Arc] | None = None
    internal_triangle: tuple[Vertex, Vertex, Vertex] | None = None


def unique_maximal_iff_acyclic_report(t: Triangulation) -> MaximalityReport:
    """Acyclicity of the dual quiver against the number of maximal
    pairs.  Every arrow of the quiver lies inside one triangle of T and
    the triangles form a tree, so the quiver has an oriented cycle iff
    T has an internal triangle (all three sides diagonals of T).  Only
    faces of ``face_sides`` can be internal: every other face is a
    triangle of one tail with an edge side (``validate``).  The report
    names the first internal triangle met in key order."""
    z = t.z
    football = triangle = None
    for d, side in sorted(face_sides(t), key=lambda ds: z.arc_key(ds[0])):
        u, h, w = t.triangle_on_side(d, side)
        sides = (Arc(u, h), Arc(h, w), Arc(w, u))
        if all(z.is_diagonal(s) and t.contains(s) for s in sides):
            football, triangle = sides, tuple(sorted((u, h, w), key=z.key))
            break
    acyclic = football is None
    pairs = frozenset(maximal_pairs(t))
    if acyclic != (len(pairs) == 1):
        raise ModelError(
            f"{'acyclic' if acyclic else 'cyclic'} dual quiver with "
            f"{len(pairs)} maximal pairs")
    return MaximalityReport(acyclic, pairs, football, triangle)


__all__ = [
    "NEG_INFINITY", "NegInf", "OrderDescriptor", "OrderedCrossingSet",
    "Root", "YExt", "MaximalityReport", "add_vectors", "crossing_order",
    "decompose_row", "delta_plus", "in_X", "maximal_pairs", "psi",
    "root_of_arc", "root_system_label", "support_subset",
    "unique_maximal_iff_acyclic_report",
]
