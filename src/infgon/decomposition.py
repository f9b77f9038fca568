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

Infinite tail families are handled with the same eventual-constancy
discipline as elsewhere: every predicate on a family is decided by
``_SubFamily.runs``, an exact decision procedure, not a sample.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, replace
from itertools import combinations

from .cvector import CoVector, dimension_vector, support, support_subset
from .triangulation import (Leapfrog, Triangulation, UnattainedError,
                            _crossing_runs, _SubFamily)
from .zmodel import Arc, ClosurePoint, Limit, ModelError, Vertex


@dataclass(frozen=True)
class NegInf:
    """The formal least element -infinity adjoined to Y."""

    def __repr__(self) -> str:
        return "-inf"


NEG_INFINITY = NegInf()


@dataclass(frozen=True)
class OrderDescriptor:
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


@dataclass(frozen=True)
class Root:
    """eps_pos - eps_neg with pos > neg in Y_ext."""

    pos: Arc
    neg: Arc | NegInf

    def vector(self) -> dict:
        """The root as a lattice vector over Y_ext coordinates."""
        out: dict = {self.pos: 1}
        out[self.neg] = out.get(self.neg, 0) - 1
        return out


def add_vectors(a: dict, b: dict) -> dict:
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
        self.sf = sf = replace(sf, imin=lo, imax=hi)
        self.open_sign = 1 if hi is None else -1
        self.closed = lo if hi is None else hi
        step = sf.member(self.closed + self.open_sign)
        self.dir_up = ocs._cmp(sf.member(self.closed), step) < 0
        self.inc_with_i = self.dir_up == (self.open_sign > 0)
        # limit point the open end accumulates at (via the p-endpoint,
        # the one strictly inside (e, f))
        e, f, z = ocs.e, ocs.f, ocs.t.z
        p_first = self.reaches_open_end(sf.runs(
            (e, f), lambda i: z.strictly_between(e, sf.vertex(0, i), f)))
        blk, _, slope = sf.e1 if p_first else sf.e2
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
    """The diagonals of T crossing the virtual arc {e, f}, totally
    ordered along the segment from e to f.

    Finite members are stored explicitly; infinite tail runs are kept
    symbolic.  All order queries (neighbors, extremes, windows, order
    type) are answered exactly."""

    def __init__(self, t: Triangulation, e: ClosurePoint, f: ClosurePoint):
        z = t.z
        self.t = t
        self.e = z._coerce_point(e)
        self.f = z._coerce_point(f)
        self.pair = Arc(self.e, self.f)
        explicit = [d for d in t.core if z.crosses(self.pair, d)]
        self._runs: list[_RunInfo] = []
        for sf in t.subfamilies():
            for lo, hi in _crossing_runs(z, sf, self.pair):
                if lo is not None and hi is not None:
                    explicit.extend(sf.member(i) for i in range(lo, hi + 1))
                else:
                    self._runs.append(_RunInfo(self, sf, lo, hi))
        if not explicit and not self._runs:
            raise ModelError(
                f"{self.pair!r} crosses no diagonal of T (empty Y)")
        self._explicit: tuple[Arc, ...] = tuple(
            sorted(explicit, key=functools.cmp_to_key(self._cmp)))
        self._struct = None

    # -- the nesting comparator ---------------------------------------

    def _sides(self, x: Arc) -> tuple[Vertex, Vertex]:
        """(p, q) with p the endpoint strictly inside ccw (e, f)."""
        if self.t.z.strictly_between(self.e, x.p, self.f):
            return x.p, x.q
        return x.q, x.p

    def _cmp(self, x: Arc, y: Arc) -> int:
        """-1/0/+1: position of the crossing point of x along e -> f
        against that of y."""
        if x == y:
            return 0
        z = self.t.z
        px, qx = self._sides(x)
        py, qy = self._sides(y)
        rp_x, rp_y = z.rel(px, self.e), z.rel(py, self.e)
        d1 = -1 if rp_x < rp_y else (1 if rp_x > rp_y else 0)
        rq_x, rq_y = z.rel(qx, self.f), z.rel(qy, self.f)
        d2 = -1 if rq_x > rq_y else (1 if rq_x < rq_y else 0)
        if d1 == 0 and d2 == 0:
            raise ModelError(f"{x!r} and {y!r} coincide as crossers")
        if d1 == 0 or d1 == d2:
            return d2 if d1 == 0 else d1
        if d2 == 0:
            return d1
        raise ModelError(
            f"incomparable crossing diagonals {x!r}, {y!r} (crossing pair)")

    def less(self, x: Arc, y: Arc) -> bool:
        return self._cmp(x, y) < 0

    # -- membership ----------------------------------------------------

    def contains(self, a: Arc) -> bool:
        return self.t.z.crosses(self.pair, a) and self.t.contains(a)

    # -- segment structure ---------------------------------------------

    def _segments(self) -> tuple[list[_Segment], list]:
        if self._struct is not None:
            return self._struct
        z = self.t.z
        cut_rels = sorted({z.rel(r.limit, self.e) for r in self._runs})
        nseg = len(cut_rels) + 1
        segs = [_Segment(i) for i in range(nseg)]
        for a in self._explicit:
            pa, _ = self._sides(a)
            s = bisect.bisect_left(cut_rels, z.rel(pa, self.e))
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
        if not self._runs:
            return True
        return self._segments()[0][0].idx == 0

    @property
    def has_greatest(self) -> bool:
        if not self._runs:
            return True
        live, cuts = self._segments()
        return live[-1].idx == len(cuts)

    def least(self) -> Arc | None:
        return self.first(1)[0] if self.has_least else None

    def greatest(self) -> Arc | None:
        return self.last(1)[0] if self.has_greatest else None

    def first(self, k: int) -> list[Arc]:
        """The k least elements, enumerated upward."""
        if k <= 0:
            return []
        if not self._runs:
            return list(self._explicit[:k])
        if not self.has_least:
            raise ModelError("Y has no least element")
        seg = self._segments()[0][0]
        expl = list(seg.explicit)
        ptrs = [[r, r.closed] for r in seg.up_runs]
        out: list[Arc] = []
        while len(out) < k:
            heads: list[tuple[Arc, object]] = []
            if expl:
                heads.append((expl[0], None))
            for pr in ptrs:
                heads.append((pr[0].sf.member(pr[1]), pr))
            best = heads[0]
            for h in heads[1:]:
                if self._cmp(h[0], best[0]) < 0:
                    best = h
            out.append(best[0])
            if best[1] is None:
                expl.pop(0)
            else:
                best[1][1] += best[1][0].open_sign
        return out

    def last(self, k: int) -> list[Arc]:
        """The k greatest elements, in increasing order."""
        if k <= 0:
            return []
        if not self._runs:
            return list(self._explicit[-k:])
        if not self.has_greatest:
            raise ModelError("Y has no greatest element")
        seg = self._segments()[0][-1]
        expl = list(seg.explicit)
        ptrs = [[r, r.closed] for r in seg.down_runs]
        out: list[Arc] = []
        while len(out) < k:
            heads: list[tuple[Arc, object]] = []
            if expl:
                heads.append((expl[-1], None))
            for pr in ptrs:
                heads.append((pr[0].sf.member(pr[1]), pr))
            best = heads[0]
            for h in heads[1:]:
                if self._cmp(h[0], best[0]) > 0:
                    best = h
            out.append(best[0])
            if best[1] is None:
                expl.pop()
            else:
                best[1][1] += best[1][0].open_sign
        return list(reversed(out))

    # -- immediate neighbors --------------------------------------------

    def _side_runs(self, r: _RunInfo, x: Arc, want: int):
        """Index runs of r's members other than x lying below x
        (want = -1) or above it (want = 1)."""
        def on_side(i):
            m = r.sf.member(i)
            return m != x and self._cmp(m, x) == want
        return r.sf.runs((x.p, x.q, self.e, self.f), on_side)

    def _far_side(self, r: _RunInfo, x: Arc, want: int) -> bool:
        """Whether r's members far toward its open end lie below x
        (want = -1) or above it (want = 1)."""
        return r.reaches_open_end(self._side_runs(r, x, want))

    def _neighbor(self, a: Arc, below: bool) -> Arc | None:
        """Greatest member < a (below) or least member > a; None when
        no member lies on that side."""
        if not self.contains(a):
            raise ModelError(f"{a!r} is not a member of Y")
        want = -1 if below else 1
        cands = [m for m in self._explicit
                 if m != a and self._cmp(m, a) == want]
        marker_runs: list[_RunInfo] = []
        for r in self._runs:
            for lo, hi in self._side_runs(r, a, want):
                # members rise with i iff inc_with_i; keep the end
                # nearest a, which is open when they approach a limit
                near = hi if r.inc_with_i == below else lo
                if near is None:
                    marker_runs.append(r)
                else:
                    cands.append(r.sf.member(near))
        best = None
        for m in cands:
            if best is None or self._cmp(m, best) == -want:
                best = m
        for r in marker_runs:
            if best is None or self._far_side(r, best, -want):
                raise UnattainedError(
                    "immediate neighbor approaches a limit point "
                    "(non-sequential crossing order)")
        return best

    def pred_in(self, a: Arc) -> Arc | None:
        return self._neighbor(a, below=True)

    def succ_in(self, a: Arc) -> Arc | None:
        return self._neighbor(a, below=False)

    # -- extreme crossers of another arc ---------------------------------

    def _extreme_crosser(self, v: Arc, want_min: bool) -> Arc:
        z = self.t.z
        want = -1 if want_min else 1
        cands = [m for m in self._explicit if z.crosses(v, m)]
        marker_runs: list[_RunInfo] = []
        for r in self._runs:
            for lo, hi in _crossing_runs(z, r.sf, v):
                end = lo if r.inc_with_i == want_min else hi
                if end is None:
                    marker_runs.append(r)
                else:
                    cands.append(r.sf.member(end))
        if not cands and not marker_runs:
            raise ModelError(f"{v!r} crosses no member of Y")
        best = None
        for m in cands:
            if best is None or self._cmp(m, best) == want:
                best = m
        for r in marker_runs:
            if best is None or self._far_side(r, best, want):
                raise UnattainedError(
                    "extreme crossing member approaches a limit point")
        return best

    def crossing_interval_of(self, v: Arc) -> tuple[Arc, Arc]:
        """Least and greatest member of Y crossing v."""
        return (self._extreme_crosser(v, True),
                self._extreme_crosser(v, False))


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
        head copy of N up by one step, identity elsewhere."""
        if self.is_finite:
            raise ModelError("Y_ext is not isomorphic to a finite Y")
        if not self.has_neg_inf:
            return el
        if isinstance(el, NegInf):
            return self.y.least()
        live, cuts = self.y._segments()
        pa, _ = self.y._sides(el)
        in_head = self.y.t.z.rel(pa, self.y.e) < cuts[0]
        return self.y.succ_in(el) if in_head else el


def y_ext(y: OrderedCrossingSet) -> YExt:
    return YExt(y)


# ---------------------------------------------------------------------------
# Roots.


def psi(y: OrderedCrossingSet, a: Arc, b: Arc) -> Root:
    """The root eps_b - eps_{pred(a)} of the interval [a, b] of Y,
    with pred taken in Y_ext (so -infinity when a is least)."""
    if not (y.contains(a) and y.contains(b)):
        raise ModelError("interval endpoints must be members of Y")
    if y._cmp(a, b) > 0:
        raise ModelError("malformed interval: a > b")
    p = y.pred_in(a)
    return Root(pos=b, neg=NEG_INFINITY if p is None else p)


def in_X(t: Triangulation, e: ClosurePoint, f: ClosurePoint,
         c: CoVector) -> bool:
    """Membership of a positive c-vector in X_{e,f}: support inclusion
    into the support of dim({e, f}), which is memoized on t per arc
    {e, f}."""
    if c.is_zero():
        raise ModelError("the zero vector is not a c-vector")
    pair = t.z.arc(e, f)
    dims = t._memo("in_X")
    dim = dims.get(pair)
    if dim is None:
        dim = dims[pair] = dimension_vector(t, pair)
    return support_subset(c, dim)


def root_of_arc(t: Triangulation, e: ClosurePoint, f: ClosurePoint,
                v: Arc) -> Root:
    """The positive root attached to dim(v) in X_{e,f}."""
    dv = dimension_vector(t, v)
    if dv.is_zero():
        raise ModelError("v crosses no diagonal of T")
    if not in_X(t, e, f, dv):
        raise ModelError(f"dim({v!r}) is not in X_({e!r},{f!r})")
    y = crossing_order(t, e, f)
    a, b = y.crossing_interval_of(v)
    return psi(y, a, b)


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
        els = []
        ends = ((yext.first(window) if yext.y.has_least else [])
                + (yext.last(window) if yext.y.has_greatest else []))
        for el in ends:
            if el not in els:
                els.append(el)
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


@dataclass(frozen=True)
class MaximalityReport:
    acyclic: bool
    pairs: frozenset
    football: tuple[Arc, Arc, Arc] | None = None
    internal_triangle: tuple[Vertex, Vertex, Vertex] | None = None


def unique_maximal_iff_acyclic_report(t: Triangulation) -> MaximalityReport:
    """Acyclicity of the dual quiver against the number of maximal
    pairs; with several maximal pairs, exhibits an internal triangle
    (all three sides diagonals of T) witnessing a quiver cycle."""
    z = t.z
    acyclic = t.dual_quiver().is_acyclic()
    pairs = frozenset(maximal_pairs(t))
    if acyclic and len(pairs) != 1:
        raise ModelError(
            "acyclic dual quiver must have exactly one maximal pair; "
            f"found {len(pairs)}")
    football = None
    triangle = None
    if len(pairs) >= 2:
        for d in t.window_nodes():
            for side in (z.succ(d.p), z.succ(d.q)):
                if side in (d.p, d.q):
                    continue
                u, h, w = t.triangle_on_side(d, side)
                sides = (Arc(u, h), Arc(h, w), Arc(w, u))
                if all(z.is_diagonal(s) and t.contains(s) for s in sides):
                    football = sides
                    triangle = t._ccw_triangle(frozenset((u, h, w)))
                    break
            if football:
                break
        if football is None:
            raise ModelError(
                "several maximal pairs but no internal triangle found")
    return MaximalityReport(acyclic, pairs, football, triangle)


__all__ = [
    "NEG_INFINITY", "NegInf", "OrderDescriptor", "OrderedCrossingSet",
    "Root", "YExt", "MaximalityReport", "add_vectors", "crossing_order",
    "delta_plus", "in_X", "maximal_pairs", "psi", "root_of_arc",
    "root_system_label", "support", "support_subset", "y_ext",
    "unique_maximal_iff_acyclic_report",
]
