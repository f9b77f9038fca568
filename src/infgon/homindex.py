"""Indices (g-vectors) via the zig-zag construction, the two-way
duality check between triangulations, and ``CoVector``, the one type
of integer functionals on the diagonals of a triangulation (indices,
dimension vectors, c-vectors): a finite explicit part plus tail-range
terms, so that infinite supports over Blocks models are exact."""

from __future__ import annotations

from typing import NamedTuple

from .triangulation import Triangulation, _covers
from .zmodel import Arc, ModelError, StepCapExceeded, Vertex, suspend


STEP_CAP = 10 ** 6  # zig-zag steps; read by ``zigzag`` at each call


class TailRange(NamedTuple):
    """Coefficient ``coeff`` on every member i of subfamily
    (gap, sub) with lo <= i <= hi (None = unbounded)."""

    gap: int
    sub: str
    lo: int | None
    hi: int | None
    coeff: int

    def sort_key(self) -> tuple:
        """The one order of tail terms: by subfamily, then by range (an
        unbounded lo below, an unbounded hi above every index), then by
        coefficient."""
        lo, hi = self.lo, self.hi
        return (self.gap, self.sub, lo is not None, lo or 0,
                hi is None, hi or 0, self.coeff)


class CoVector:
    """Integer functional on the diagonals of a fixed triangulation;
    zero coefficients are never stored."""

    __slots__ = ("t", "explicit", "tail_terms")

    def __init__(self, t: Triangulation, explicit: dict[Arc, int] | None = None,
                 tail_terms: tuple[TailRange, ...] = ()):
        self.t = t
        explicit = dict(explicit or {})  # a copy reuses the stored hashes
        if 0 in explicit.values():
            explicit = {a: c for a, c in explicit.items() if c != 0}
        self.explicit = explicit
        self.tail_terms = tuple(tr for tr in tail_terms if tr.coeff != 0)

    @classmethod
    def _owning(cls, t: Triangulation, explicit: dict[Arc, int],
                tail_terms: tuple[TailRange, ...]) -> "CoVector":
        """A CoVector that takes ``explicit``, a fresh dict, and
        ``tail_terms`` as they are: neither holds a zero coefficient."""
        c = object.__new__(cls)
        c.t, c.explicit, c.tail_terms = t, explicit, tail_terms
        return c

    @property
    def coeffs(self) -> dict[Arc, int]:
        """The explicit part, read-only: the name under which the
        benchmark's sweeps read index answers."""
        return self.explicit

    def eval(self, d: Arc) -> int:
        val = self.explicit.get(d, 0)
        if self.tail_terms:
            ref = self.t.tail_ref_of(d)
            if ref is not None:
                gap, sub, i = ref
                for tr in self.tail_terms:
                    if (tr.gap == gap and tr.sub == sub
                            and _covers(tr.lo, tr.hi, i)):
                        val += tr.coeff
        return val

    def __neg__(self) -> "CoVector":
        return CoVector._owning(
            self.t, {a: -c for a, c in self.explicit.items()},
            tuple(tr._replace(coeff=-tr.coeff) for tr in self.tail_terms))

    def is_zero(self) -> bool:
        return not self.explicit and not self.tail_terms

    def is_positive(self) -> bool:
        """Nonzero with no negative coefficient: one sign of c-vectors."""
        return (all(c >= 0 for c in self.explicit.values())
                and all(tr.coeff >= 0 for tr in self.tail_terms)
                and not self.is_zero())

    def is_negative(self) -> bool:
        """Nonzero with no positive coefficient: the other sign."""
        return (all(c <= 0 for c in self.explicit.values())
                and all(tr.coeff <= 0 for tr in self.tail_terms)
                and not self.is_zero())

    def sign_coherent(self) -> bool:
        """The Nakanishi--Zelevinsky sign property, which tests check."""
        return self.is_zero() or self.is_positive() or self.is_negative()

    def _canon(self):
        return (frozenset(self.explicit.items()),
                tuple(sorted(self.tail_terms, key=TailRange.sort_key)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, CoVector) and self.t == other.t
                and self._canon() == other._canon())

    def __hash__(self) -> int:
        return hash(self._canon())

    def __repr__(self) -> str:
        return f"CoVector({self.explicit!r}, {self.tail_terms!r})"


class ZigZagPath(NamedTuple):
    vertices: tuple[Vertex, ...]


def zigzag(t: Triangulation, e: Vertex, f: Vertex) -> ZigZagPath:
    """The extremal path e = e0, e1, ..., e_{2i+1} = f.

    Odd steps are suprema toward f with edges allowed; even steps are
    infima back past f through diagonals of T only.  A path longer than
    ``STEP_CAP`` steps raises StepCapExceeded."""
    z = t.z
    e, f = z.v(e), z.v(f)
    if e == f:
        raise ModelError("zig-zag needs distinct endpoints")
    even, odd = e, t.sup_connected(e, z.succ(e), f)  # e_{2k-2}, e_{2k-1}
    if odd is None:
        raise ModelError("no first step: e is isolated (invalid input)")
    path = [e, odd]
    past_f = None  # succ(f), found on the first even step
    while odd != f:
        if len(path) > 2 * STEP_CAP:  # each step adds two vertices
            raise StepCapExceeded(
                f"zig-zag from {e!r} to {f!r} exceeded {STEP_CAP} steps")
        past_f = past_f or z.succ(f)
        even = t.inf_connected(odd, past_f, z.pred(even), True)
        if even is None:
            raise ModelError("zig-zag stuck: no even step (invalid input)")
        odd = t.sup_connected(even, z.succ(odd), f)
        if odd is None:
            raise ModelError("zig-zag stuck: no odd step (invalid input)")
        path += (even, odd)
    return ZigZagPath(tuple(path))


def index(t: Triangulation, a: Arc) -> CoVector:
    """The index of the arc in the basis of t: the alternating sum of
    consecutive zig-zag pairs; edge steps contribute zero.

    Answers are memoized on t, keyed by arc; every call returns a
    fresh CoVector."""
    return CoVector._owning(t, index_coeffs(t, a), ())


def index_coeffs(t: Triangulation, a: Arc) -> dict[Arc, int]:
    """index(t, a)'s coefficients in a fresh dict; the memo on t keeps
    them as a flat tuple (arc, coeff, arc, coeff, ...), smaller."""
    memo = t._memo("index")
    flat = memo.get(a)
    if flat is None:
        flat = memo[a] = _zigzag_index(t, a)
    return dict(zip(flat[::2], flat[1::2]))


def _zigzag_index(t: Triangulation, a: Arc) -> tuple:
    if not (isinstance(a.p, Vertex) and isinstance(a.q, Vertex)):
        raise ModelError("index needs vertex endpoints")
    z = t.z
    if z.is_edge(a):
        return ()
    path = zigzag(t, a.p, a.q).vertices
    total: dict[Arc, int] = {}
    for m, (u, w) in enumerate(zip(path, path[1:])):
        if not z.are_neighbours(u, w):  # an edge step adds nothing
            step = Arc(u, w)
            total[step] = total.get(step, 0) + (-1) ** m
    for step in total:
        if not t.contains(step):
            raise ModelError(
                f"zig-zag step {step!r} is a diagonal outside T "
                "(invalid triangulation)")
    own = t._memo("core_arc")  # T's own instance of each core arc
    if len(own) < len(t.core):
        own.update(zip(t.core, t.core))
    return tuple(x for step, c in total.items() if c
                 for x in (own.get(step, step), c))


def _index_sum(t: Triangulation, c: CoVector, bar: bool) -> CoVector:
    """The sum of c(a) * index(t, a), or of c(a) * index_bar(t, a),
    over the explicit arcs a of c, accumulated into one dict."""
    if c.tail_terms:
        raise ModelError("an index sum takes finitely many terms, not "
                         f"the tail term {c.tail_terms[0]!r}")
    total: dict[Arc, int] = {}
    for a, k in c.explicit.items():
        if bar:
            a, k = suspend(t.z, a), -k
        for b, d in index_coeffs(t, a).items():
            total[b] = total.get(b, 0) + k * d
    return CoVector(t, total)


def index_sum(t: Triangulation, c: CoVector) -> CoVector:
    return _index_sum(t, c, False)


def index_bar(t: Triangulation, a: Arc) -> CoVector:
    return -index(t, suspend(t.z, a))


def index_bar_sum(t: Triangulation, c: CoVector) -> CoVector:
    return _index_sum(t, c, True)


class DualityReport(NamedTuple):
    ok: bool
    failures: tuple[tuple, ...]


def check_duality(t_t: Triangulation, t_u: Triangulation,
                  window_t: list[Arc], window_u: list[Arc]) -> DualityReport:
    """Verifies that the two index maps are mutually inverse on the
    given basis windows: ind_T(ind_bar_U[t]) = [t] and
    ind_bar_U(ind_T[u]) = [u]."""
    if t_t.z != t_u.z:
        raise ModelError("triangulations live over different models")
    failures = []
    for a in window_t:
        via_u = index_bar(t_u, a)
        back = index_sum(t_t, via_u)
        if back != CoVector(t_t, {a: 1}):
            failures.append(("T-side", a, via_u, back))
    for a in window_u:
        via_t = index(t_t, a)
        back = index_bar_sum(t_u, via_t)
        if back != CoVector(t_u, {a: 1}):
            failures.append(("U-side", a, via_t, back))
    return DualityReport(not failures, tuple(failures))
