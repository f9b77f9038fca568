"""Cyclically ordered vertex sets on the circle and their arcs.

Two families of models are supported:

* ``Finite(n)``: the vertices of a convex n-gon, labelled 0..n-1
  counterclockwise.
* ``Blocks(k)``: k copies of the integers glued cyclically, with one
  limit point L(b) between block b and block b+1 (mod k).  Within a
  block the index increases counterclockwise.

All order and crossing questions are answered through an integer
"position key" linearization anchored at vertex (0, 0); no
floating-point geometry is used anywhere.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import NamedTuple, Union


class Vertex(NamedTuple):
    block: int
    idx: int

    def __repr__(self) -> str:
        return f"V({self.block},{self.idx})"


# new_vertex((b, i)) is Vertex(b, i) without NamedTuple's Python __new__
new_vertex = partial(tuple.__new__, Vertex)


class _Ring(dict):
    """Finite(n)'s vertices by index, each built once, on first use."""

    def __missing__(self, i: int) -> Vertex:
        v = self[i] = new_vertex((0, i))
        return v


class Frozen:
    """Base of the immutable value classes: ``__init__`` sets the
    fields ``_fields`` once.  Two instances of one class are equal when
    their field values ``_values(self)`` are, and hash as the field
    tuple; ``Arc``, on the hot paths, writes both out."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def _immutable(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields))


class Limit(Frozen):
    """The limit point between block ``gap`` and block ``gap+1 mod k``."""

    __slots__ = _fields = ("gap",)
    _values = attrgetter(*_fields)

    def __hash__(self) -> int:  # of the field tuple, as for the others
        return hash((self.gap,))

    def __repr__(self) -> str:
        return f"L({self.gap})"


ClosurePoint = Union[Vertex, Limit]


class ModelError(ValueError):
    """Raised for structurally invalid model-level inputs."""


class StepCapExceeded(RuntimeError):
    """The zig-zag did not end within the step cap: invalid input, as
    it ends on every valid triangulation."""


class RealizationUnsupported(RuntimeError):
    """The construction would delete infinitely many diagonals."""


class ZModel(Frozen):
    """Either a finite polygon or a blocks-of-integers model.

    Exactly one of ``n`` (finite) and ``k`` (blocks) is set.
    """

    _fields = ("n", "k")
    __slots__ = _fields + ("_ring",)  # _ring: a cache, not a field
    _values = attrgetter(*_fields)

    def __init__(self, n: int | None = None, k: int | None = None) -> None:
        if (n is None) == (k is None):
            raise ModelError("exactly one of n, k must be given")
        if n is not None and n < 4:
            raise ModelError("finite model needs n >= 4")
        if k is not None and k < 1:
            raise ModelError("blocks model needs k >= 1")
        super().__init__(n, k)
        object.__setattr__(self, "_ring", _Ring())

    # -- constructors ------------------------------------------------

    @staticmethod
    def finite(n: int) -> "ZModel":
        return ZModel(n=n)

    @staticmethod
    def blocks(k: int) -> "ZModel":
        return ZModel(k=k)

    @property
    def is_finite(self) -> bool:
        return self.n is not None

    # -- vertex handling ---------------------------------------------

    def v(self, a) -> Vertex:
        """Coerce an int (finite model), pair, or Vertex into a Vertex."""
        if isinstance(a, Vertex):
            return self.check_vertex(a)
        if isinstance(a, int):
            if self.n is not None:
                return self._ring[a % self.n]
            if self.k == 1:
                return Vertex(0, a)
            raise ModelError("bare integer vertex is ambiguous for k > 1")
        if isinstance(a, tuple) and len(a) == 2:
            return self.check_vertex(Vertex(*a))
        raise ModelError(f"cannot interpret {a!r} as a vertex")

    def check_vertex(self, v: Vertex) -> Vertex:
        """v if it is a Vertex of this model, else ModelError.  succ,
        pred and are_neighbours test this inline and call it to raise."""
        if v.__class__ is not Vertex:
            raise ModelError(f"cannot interpret {v!r} as a vertex")
        block, idx = v
        n = self.n
        if n is not None:
            if block != 0 or not (0 <= idx < n):
                raise ModelError(f"{v!r} is not a vertex of Finite({n})")
        elif not (0 <= block < self.k):
            raise ModelError(f"{v!r} is not a vertex of Blocks({self.k})")
        return v

    def limits(self) -> list[Limit]:
        if self.is_finite:
            return []
        return [Limit(g) for g in range(self.k)]

    def vertices(self, window: tuple[int, int] | None = None
                 ) -> list[Vertex]:
        """All vertices of a finite model; on a Blocks model, the
        vertices (b, i) of every block b with lo <= i <= hi for the
        window (lo, hi), which a Blocks model needs."""
        if self.is_finite:
            return [Vertex(0, i) for i in range(self.n)]
        if window is None:
            raise ModelError("infinite model has no finite vertex list")
        lo, hi = window
        return [Vertex(b, i) for b in range(self.k) for i in range(lo, hi + 1)]

    # -- successor / predecessor -------------------------------------

    def succ(self, v: Vertex) -> Vertex:
        block, idx = v if v.__class__ is Vertex else self.check_vertex(v)
        n = self.n  # None or at least 4
        if (block != 0 or not 0 <= idx < n) if n else not 0 <= block < self.k:
            self.check_vertex(v)
        return self._ring[(idx + 1) % n] if n else new_vertex((block, idx + 1))

    def pred(self, v: Vertex) -> Vertex:
        block, idx = v if v.__class__ is Vertex else self.check_vertex(v)
        n = self.n
        if (block != 0 or not 0 <= idx < n) if n else not 0 <= block < self.k:
            self.check_vertex(v)
        return self._ring[(idx - 1) % n] if n else new_vertex((block, idx - 1))

    # -- linearization -----------------------------------------------

    def key(self, p: ClosurePoint) -> tuple[int, int, int]:
        """Canonical linearization key starting at vertex (0, 0).

        Keys compare as the counterclockwise order of closure points
        read from (0, 0).  For Blocks(k) the negative half of block 0
        is mapped past the last limit point (pseudo-block k).  Raises
        ModelError for a point outside the model.
        """
        n = self.n  # self.k is read on a Blocks model only
        if p.__class__ is Vertex or not isinstance(p, Limit):
            block, idx = p
            if n is not None:
                if block != 0 or not (0 <= idx < n):
                    raise ModelError(f"{p!r} is not a vertex of Finite({n})")
                return (0, 0, idx)
            if not (0 <= block < self.k):
                raise ModelError(f"{p!r} is not a vertex of Blocks({self.k})")
            if block == 0 and idx < 0:
                return (self.k, 0, idx)
            return (block, 0, idx)
        if n is not None or not (0 <= p.gap < self.k):
            raise ModelError(f"{p!r} is not a limit point of this model")
        return (p.gap, 1, 0)

    def rel(self, p: ClosurePoint, start: ClosurePoint):
        """Position of ``p`` in the rotation of the linearization that
        begins at ``start``; totally ordered tuples."""
        kp, ks = self.key(p), self.key(start)
        return (kp < ks, kp)

    # -- cyclic order -------------------------------------------------

    def cyclically_between(self, a: ClosurePoint, x: ClosurePoint,
                           b: ClosurePoint) -> bool:
        """True iff x lies in the closed counterclockwise interval [a, b].
        Kept for the benchmark's traced run, which counts it by name."""
        ka, kx, kb = self.key(a), self.key(x), self.key(b)
        if ka == kb:
            raise ModelError("degenerate interval: a == b")
        return keys_in_closed(ka, kx, kb)

    def strictly_between(self, a: ClosurePoint, x: ClosurePoint,
                         b: ClosurePoint) -> bool:
        """True iff x lies in the open counterclockwise interval (a, b)."""
        ka, kx, kb = self.key(a), self.key(x), self.key(b)
        if kx == ka or kx == kb:
            return False
        if ka == kb:
            raise ModelError("degenerate interval: a == b")
        return keys_in_closed(ka, kx, kb)

    # -- arcs ---------------------------------------------------------

    def arc(self, p, q) -> "Arc":
        return Arc(self._coerce_point(p), self._coerce_point(q))

    def _coerce_point(self, p) -> ClosurePoint:
        if isinstance(p, Limit):
            if self.is_finite:
                raise ModelError("finite model has no limit points")
            return Limit(p.gap % self.k)
        return self.v(p)

    def are_neighbours(self, u: Vertex, v: Vertex) -> bool:
        if not u.__class__ is Vertex is v.__class__:
            self.check_vertex(u), self.check_vertex(v)
        (bu, iu), (bv, iv) = u, v
        n = self.n
        if not (bu == bv == 0 and 0 <= iu < n and 0 <= iv < n if n
                else 0 <= bu < self.k and 0 <= bv < self.k):
            self.check_vertex(u), self.check_vertex(v)
        return ((iu - iv) % n in (1, n - 1) if n
                else bu == bv and abs(iu - iv) == 1)

    def is_edge(self, a: "Arc") -> bool:
        return (isinstance(a.p, Vertex) and isinstance(a.q, Vertex)
                and self.are_neighbours(a.p, a.q))

    def is_diagonal(self, a: "Arc") -> bool:
        return (isinstance(a.p, Vertex) and isinstance(a.q, Vertex)
                and a.p != a.q and not self.are_neighbours(a.p, a.q))

    def arc_key(self, a: "Arc") -> tuple:
        """(key(a.p), key(a.q)): the one sort key of arcs."""
        return (self.key(a.p), self.key(a.q))

    def crosses(self, a: "Arc", t: "Arc") -> bool:
        """Whether the virtual arc ``a`` crosses the diagonal ``t``.

        True iff exactly one endpoint of t lies strictly inside the
        open interval (a.p, a.q); sharing an endpoint means no crossing.
        """
        if not self.is_diagonal(t):
            raise ModelError(f"{t!r} is not a diagonal")
        key = self.key
        return keys_cross(key(a.p), key(a.q), key(t.p), key(t.q))


def keys_in_closed(klo, kp, khi) -> bool:
    """The one cyclic-interval test: whether the point with key kp lies
    in the closed counterclockwise interval from key klo to key khi.
    Keys are rotated to start at klo, so a key below klo comes after
    every key at or above it; klo == khi gives the single point."""
    if klo == khi:
        return kp == klo
    return (kp < klo, kp) <= (khi < klo, khi)


def keys_cross(ka, kb, kp, kq) -> bool:
    """The one crossing test: whether the chord with endpoint keys kp,
    kq crosses the chord with endpoint keys ka != kb, that is, exactly
    one of kp, kq lies strictly inside the interval from ka to kb.  A
    shared endpoint is no crossing.  Symmetric in the two chords and
    in the order of each chord's endpoints."""
    if kp == ka or kp == kb or kq == ka or kq == kb:
        return False
    return keys_in_closed(ka, kp, kb) != keys_in_closed(ka, kq, kb)


def _point_sort_key(p: ClosurePoint):
    # Structural, model-independent order used only for normalization.
    if isinstance(p, Limit):
        return (1, p.gap, 0)
    return (0, p.block, p.idx)


class Arc(Frozen):
    """Unordered pair of distinct closure points, stored normalized,
    with the hash of (p, q) kept from construction."""

    _fields = ("p", "q")
    __slots__ = _fields + ("_hash",)

    def __init__(self, p: ClosurePoint, q: ClosurePoint) -> None:
        if p == q:
            raise ModelError("arc endpoints must be distinct")
        if p.__class__ is Vertex is q.__class__:
            if p > q:  # as _point_sort_key orders two vertices
                p, q = q, p
        elif _point_sort_key(p) > _point_sort_key(q):
            p, q = q, p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_hash", hash((p, q)))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def endpoints(self) -> tuple[ClosurePoint, ClosurePoint]:
        return (self.p, self.q)

    def __repr__(self) -> str:
        return f"Arc({self.p!r},{self.q!r})"


def suspend(z: ZModel, a: Arc) -> Arc:
    """The suspension: both endpoints move to their predecessors."""
    if not (isinstance(a.p, Vertex) and isinstance(a.q, Vertex)):
        raise ModelError("suspension needs vertex endpoints")
    return Arc(z.pred(a.p), z.pred(a.q))

